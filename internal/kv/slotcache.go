package kv

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"nvmcache/internal/mdb"
)

// slotCache is a shard's lossy map from a key to the leaf entry that last
// held it, in front of the tree descent (DESIGN §4j). It is volatile and
// self-validating: a way answers a lookup only if its page is in the
// published tree (the live map) and its entry still holds the key, so no
// entry is ever invalidated — a stale one fails validation and is
// overwritten by the descent that follows.
//
// Any goroutine may read and install ways (atomic words). Only the shard's
// committer flips the live map, and only in publish, just before it stores
// the new published view: a commit's fresh pages become live there and its
// superseded pages dead, before any pin can see the new generation.
// Flipping any earlier — in mdb's Commit, say — would let a page recycled
// from the free list validate an old way and expose a commit no reader may
// see yet; flipping after the view is stored would let a reader that
// descended the new tree be sent back to a superseded leaf still marked
// live.
type slotCache struct {
	// ways holds 2 words per set: tag | page<<3 | entry index. The page
	// field is as wide as the pool's page indices need; the tag, the bits
	// of the key's hash above it, fills the rest of the word. A tag only
	// spares validating the wrong way, so it may be short.
	ways    []uint32
	tagMask uint32
	shift   uint   // 64 − log2(sets)
	pages   uint32 // page indices below this fit the page field
	// live has bit p set while page index p is in the published tree.
	live []uint64
}

// hashMul is the 64-bit golden-ratio multiplier: the top bits of k·hashMul
// pick k's set, its low word holds the tag.
const hashMul = 0x9E3779B97F4A7C15

// slotCaches hands a crashed store's caches to the recovery that follows:
// its ways need no clearing, because they validate against the recovered
// tree, and reusing them keeps each crash/recover cycle from leaving a
// fresh set of tables for the collector.
var slotCaches sync.Pool

// newSlotCache returns a cache for db, a pool of pages pages, with an empty
// live map, or one seeded from the tree Attach walked. It has two sets, so
// four ways, per page, rounded up to a power of two, and reuses a crashed
// store's cache of that size when one is pooled.
func newSlotCache(db *mdb.DB, pages int) *slotCache {
	attached := db.AttachedPages()
	if attached != nil {
		pages = len(attached)
	}
	lg := bits.Len(uint(2*max(pages, 1) - 1)) // 2^lg ≥ 2·pages sets
	words := (pages + 63) / 64
	c, _ := slotCaches.Get().(*slotCache)
	if c != nil && len(c.ways) == 2<<lg && len(c.live) == words {
		clear(c.live)
	} else {
		// Page indices below 2^(lg−1) ≥ pages fit the page field, up to 29
		// bits; a larger pool's upper pages are never cached.
		pb := min(uint(lg-1), 29)
		c = &slotCache{ways: make([]uint32, 2<<lg), live: make([]uint64, words),
			tagMask: ^uint32(0) << (pb + 3), pages: 1 << pb, shift: 64 - uint(lg)}
	}
	for p, reached := range attached {
		if reached {
			c.live[p>>6] |= 1 << (p & 63)
		}
	}
	return c
}

// isLive reports whether page index page is in the published tree.
func (c *slotCache) isLive(page uint32) bool {
	w := page >> 6
	return int(w) < len(c.live) && atomic.LoadUint64(&c.live[w])&(1<<(page&63)) != 0
}

// mark sets page's live bit to on. Committer only, in publish: a plain
// read-modify-write of the word suffices with one writer (the commit lock
// holder), and readers load it atomically.
func (c *slotCache) mark(page uint32, on bool) {
	w := &c.live[page>>6]
	bit := uint64(1) << (page & 63)
	if on {
		atomic.StoreUint64(w, atomic.LoadUint64(w)|bit)
	} else {
		atomic.StoreUint64(w, atomic.LoadUint64(w)&^bit)
	}
}

// lookup returns the address of k's value word in the published tree, or 0
// when k is absent. A way answers when it names a live leaf that still
// holds k; otherwise lookup descends from root and installs what it finds.
// root is the caller's pinned root, or the current one in the committer
// between commits; either way no page lookup reads can be recycled under
// it. The descent counts in descents: the reader's slot's, or the
// committer's own.
func (sh *shard) lookup(root, k uint64, descents *atomic.Uint64) uint64 {
	c := sh.cache
	h := k * hashMul
	at := (h >> c.shift) * 2
	set := c.ways[at : at+2 : at+2]
	tag := uint32(h) & c.tagMask
	e0 := atomic.LoadUint32(&set[0])
	if e0&c.tagMask == tag {
		if slot := sh.validate(e0, k); slot != 0 {
			return slot
		}
	}
	if e1 := atomic.LoadUint32(&set[1]); e1&c.tagMask == tag {
		if slot := sh.validate(e1, k); slot != 0 {
			return slot
		}
	}
	bump(descents)
	slot, page, i := sh.db.Locate(root, k)
	if slot != 0 && page < c.pages {
		// The newest entry takes way 0 and the one it displaces way 1,
		// unless way 0 held k's own stale entry.
		if e0&c.tagMask != tag {
			atomic.StoreUint32(&set[1], e0)
		}
		atomic.StoreUint32(&set[0], tag|page<<3|uint32(i))
	}
	return slot
}

// validate returns the value word way e names for k if its page is live
// and its entry holds k, else 0.
func (sh *shard) validate(e uint32, k uint64) uint64 {
	page := e &^ sh.cache.tagMask >> 3
	if !sh.cache.isLive(page) {
		return 0
	}
	return sh.db.SlotAt(page, int(e&7), k)
}

// get is lookup's value: k's value in the published tree.
func (sh *shard) get(root, k uint64, descents *atomic.Uint64) (uint64, bool) {
	if slot := sh.lookup(root, k, descents); slot != 0 {
		return sh.db.SlotValue(slot), true
	}
	return 0, false
}

// flipLive brings the live map from the previous published tree to the one
// the last copy-on-write commit made. Committer only, from publish,
// before the new view is stored.
//
// The superseded pages go dead before the fresh ones go live, so no reader
// finds a key's old leaf and its new one live at once: a reader that has
// seen the new value can never be sent back to the old one by a way that
// a slower reader, pinned to the old tree, installed meanwhile. A page the
// commit both allocated and unlinked (an emptied page, which validates no
// entry) is live for that moment only, and dead again before the view is
// published.
func (sh *shard) flipLive() {
	sh.markAll(sh.superseded, false)
	sh.markAll(sh.db.FreshPages(), true)
	sh.markAll(sh.superseded, false)
	sh.superseded = nil
}

func (sh *shard) markAll(pages []uint64, on bool) {
	for _, p := range pages {
		sh.cache.mark(sh.db.PageIndex(p), on)
	}
}
