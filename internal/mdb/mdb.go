// Package mdb is a memory-mapped-database stand-in for the paper's MDB
// (LMDB) case study (Section IV-C): a copy-on-write B+-tree key-value
// store with single-writer transactions and snapshot readers, persisted
// through the Atlas runtime. A write transaction copies every page on the
// root-to-leaf path of each update (the COW policy the paper describes),
// mutates the copies, and installs a new root — all inside one FASE, so a
// crash either exposes the old tree or the new one, never a mix.
//
// The store reproduces the write-pattern class the paper measures: bursts
// of page-copy stores with heavy intra-transaction page reuse (upper-level
// pages are copied once per transaction but touched by every operation),
// which is exactly the locality the adaptive software cache discovers
// (MDB's selected cache size is 20 in Section IV-G).
package mdb

import (
	"errors"
	"fmt"

	"nvmcache/internal/atlas"
	"nvmcache/internal/pmem"
	"nvmcache/internal/trace"
)

// ErrPoolExhausted is returned (wrapped) by Put and Delete when the page
// pool has no pages left for the transaction's COW copies. It is a load
// condition, not corruption: the caller should Abort the transaction and
// shed work (or reopen with a larger pool). Test with errors.Is.
var ErrPoolExhausted = errors.New("mdb: page pool exhausted")

// Tree geometry: order-8 nodes, one page = header + 8 keys + 8 values (or
// child pointers) = 136 bytes, padded to 3 cache lines so pages never
// share a line (block size 192 in the page arena).
const (
	order     = 8
	hdrOff    = 0
	keysOff   = 8
	valsOff   = keysOff + 8*order
	pageBytes = valsOff + 8*order
	pageBlock = 3 * trace.LineSize
)

// The page arena is one line of geometry followed by the pages:
//
//	arena+0:  page block size (pageBlock; Attach's sanity check)
//	arena+8:  capacity in pages
//	arena+64: page 0, then page i at arena+64+i·pageBlock
//
// The geometry is written once, before the store's meta page points at it.
// Nothing else about allocation is persistent (see DB).
const arenaHdr = trace.LineSize

// DefaultPoolPages sizes the page pool when Open is not given an explicit
// capacity.
const DefaultPoolPages = 1 << 15

const (
	pageLeaf   = 0
	pageBranch = 1
)

// DB is the key-value store. One DB has a single writer at a time (callers
// serialize write transactions, as in LMDB); snapshot readers may read any
// committed root.
//
// The page allocator is volatile: a LIFO stack of free page indices plus a
// cursor below which every page has been handed out at least once. It
// persists nothing, because a committed root already names every live
// page — Attach rebuilds the stack and the cursor from the recovered tree,
// and the pages of a transaction a crash cut short, unreachable from that
// tree, are simply free again.
type DB struct {
	t     *atlas.Thread
	meta  uint64 // meta page: root ptr at +0, generation at +8, arena at +16
	pages uint64 // address of page 0

	free   []uint32 // free page indices below cursor, reused last-in first-out
	cursor uint32   // pages [cursor, capacity) were never handed out
	// recycle=false keeps old page versions alive for long-lived snapshots.
	recycle bool

	// Transaction state. stamp[i] == txnSeq marks page i as allocated by
	// the running transaction, so it is mutated in place rather than copied;
	// fresh lists those pages in allocation order for Abort, and freed the
	// pages the transaction supersedes. All of it is sized once and reused,
	// so a steady stream of commits allocates nothing.
	inTxn  bool
	txnSeq uint32
	stamp  []uint32 // one per page; len(stamp) is the capacity
	fresh  []uint64
	freed  []uint64
	// freeHook, when set, receives the superseded pages of each commit
	// instead of them being recycled immediately (see SetFreeHook).
	freeHook func(gen uint64, pages []uint64)
	// pend backs CommitPublish: at most two published transactions are
	// unawaited at once (the caller awaits N after publishing N+1), so two
	// alternating records cover them.
	pend    [2]PendingCommit
	pendIdx int
}

// Open creates an empty store with the default page-pool capacity (or
// reattaches to one via root discovery; see Reopen).
func Open(t *atlas.Thread) (*DB, error) { return OpenSized(t, DefaultPoolPages) }

// OpenSized creates an empty store whose page pool holds up to pages
// pages and installs it as the heap's root object.
func OpenSized(t *atlas.Thread, pages int) (*DB, error) {
	db, err := Create(t, pages)
	if err != nil {
		return nil, err
	}
	t.Heap().SetRoot(db.meta)
	return db, nil
}

// Create builds an empty store without touching the heap's root pointer,
// so several stores can share one heap (a sharded service keeps each
// shard's MetaAddr in its own directory object). Use Attach to reopen.
func Create(t *atlas.Thread, pages int) (*DB, error) {
	h := t.Heap()
	meta, err := h.AllocLines(64)
	if err != nil {
		return nil, fmt.Errorf("mdb: %w", err)
	}
	arena, err := h.AllocLines(arenaHdr + pageBlock*uint64(pages))
	if err != nil {
		return nil, fmt.Errorf("mdb: page pool: %w", err)
	}
	h.WriteUint64(arena, pageBlock)
	h.WriteUint64(arena+8, uint64(pages))
	h.Persist(arena, arenaHdr)
	db := newHandle(t, meta, arena, pages)
	t.FASEBegin()
	t.Store64(meta, 0)        // empty tree
	t.Store64(meta+8, 0)      // generation
	t.Store64(meta+16, arena) // page arena
	t.FASEEnd()
	return db, nil
}

// Reopen attaches to the store previously created in the heap (after a
// restart and atlas.Recover).
func Reopen(t *atlas.Thread) (*DB, error) {
	meta := t.Heap().Root()
	if meta == 0 {
		return nil, fmt.Errorf("mdb: heap has no root; use Open")
	}
	return Attach(t, meta)
}

// Attach reopens the store whose meta page lives at meta (obtained from
// MetaAddr before the restart), for heaps holding more than one store. It
// rebuilds the page allocator from the committed tree: the cursor goes just
// past the highest page the root reaches, and every unreached page below it
// is free. It trusts nothing it reads (see reachable), and clamps the
// capacity to the heap.
func Attach(t *atlas.Thread, meta uint64) (*DB, error) {
	if meta == 0 {
		return nil, fmt.Errorf("mdb: zero meta address")
	}
	h := t.Heap()
	arena := h.ReadUint64(meta + 16)
	if arena < pmem.HeaderSize || arena > h.Size()-arenaHdr || h.ReadUint64(arena) != pageBlock {
		return nil, fmt.Errorf("mdb: %d does not look like a page arena", arena)
	}
	pages := min(h.ReadUint64(arena+8), (h.Size()-arena-arenaHdr)/pageBlock)
	db := newHandle(t, meta, arena, int(pages))
	live := db.reachable()
	for i := len(live); i > 0; i-- {
		if live[i-1] {
			db.cursor = uint32(i)
			break
		}
	}
	// Pushed from the top down, so the lowest free page is reused first.
	for i := db.cursor; i > 0; i-- {
		if !live[i-1] {
			db.free = append(db.free, i-1)
		}
	}
	return db, nil
}

func newHandle(t *atlas.Thread, meta, arena uint64, pages int) *DB {
	return &DB{t: t, meta: meta, pages: arena + arenaHdr, recycle: true,
		free: make([]uint32, 0, pages), stamp: make([]uint32, pages)}
}

// MetaAddr returns the persistent address of the store's meta page; store
// it in a root/directory object to Attach after a restart.
func (db *DB) MetaAddr() uint64 { return db.meta }

// Generation returns the committed transaction count.
func (db *DB) Generation() uint64 { return db.t.Load64(db.meta + 8) }

// pageIndex maps a page address to its index, reporting false for anything
// that is not the start of a page in the arena.
func (db *DB) pageIndex(p uint64) (uint32, bool) {
	off := p - db.pages
	i := off / pageBlock
	return uint32(i), p >= db.pages && i < uint64(len(db.stamp)) && off%pageBlock == 0
}

// alloc hands out a page for the running transaction: the most recently
// freed one, else the next never-used one.
func (db *DB) alloc() (uint64, error) {
	var i uint32
	if n := len(db.free); n > 0 {
		i = db.free[n-1]
		db.free = db.free[:n-1]
	} else if int(db.cursor) < len(db.stamp) {
		i = db.cursor
		db.cursor++
	} else {
		return 0, fmt.Errorf("%w (%d pages)", ErrPoolExhausted, len(db.stamp))
	}
	db.stamp[i] = db.txnSeq
	p := db.pages + uint64(i)*pageBlock
	db.fresh = append(db.fresh, p)
	return p, nil
}

// release returns a page to the allocator. The page must have come from
// alloc and be unreachable from every root a reader may still hold.
func (db *DB) release(p uint64) {
	db.free = append(db.free, uint32((p-db.pages)/pageBlock))
}

// page accessors (p is a page address).
func (db *DB) ptype(p uint64) uint64      { return db.t.Load64(p+hdrOff) >> 32 }
func (db *DB) nkeys(p uint64) int         { return int(uint32(db.t.Load64(p + hdrOff))) }
func (db *DB) key(p uint64, i int) uint64 { return db.t.Load64(p + keysOff + uint64(8*i)) }
func (db *DB) val(p uint64, i int) uint64 { return db.t.Load64(p + valsOff + uint64(8*i)) }

// The setters write only pages the running transaction allocated —
// whole-line blocks, reachable from no durable root until the logged store
// of the meta root publishes them — so they are private stores: dirty-marked
// and drained with the FASE, never undo-logged.
func (db *DB) setHdr(p uint64, typ uint64, n int) {
	db.t.StorePrivate64(p+hdrOff, typ<<32|uint64(uint32(n)))
}
func (db *DB) setKey(p uint64, i int, k uint64) { db.t.StorePrivate64(p+keysOff+uint64(8*i), k) }
func (db *DB) setVal(p uint64, i int, v uint64) { db.t.StorePrivate64(p+valsOff+uint64(8*i), v) }

// Begin opens a write transaction (one FASE).
func (db *DB) Begin() error {
	if db.inTxn {
		return fmt.Errorf("mdb: nested write transaction")
	}
	db.inTxn = true
	if db.txnSeq++; db.txnSeq == 0 {
		// Wrapped: stamps of 2³² transactions ago would read as this one's.
		clear(db.stamp)
		db.txnSeq = 1
	}
	db.fresh = db.fresh[:0]
	db.freed = db.freed[:0]
	db.t.FASEBegin()
	return nil
}

// Commit installs the new root (done by the ops as they run), bumps the
// generation and closes the FASE; old page versions become recyclable.
func (db *DB) Commit() error {
	if !db.inTxn {
		return fmt.Errorf("mdb: commit outside transaction")
	}
	db.t.Store64(db.meta+8, db.Generation()+1)
	db.t.FASEEnd()
	if db.recycle {
		if db.freeHook != nil {
			if len(db.freed) > 0 {
				db.freeHook(db.Generation(), db.freed)
			}
		} else {
			// The superseded page versions are reused only once the
			// transaction is durable: until then a crash rolls back to the
			// tree that reaches them.
			for _, p := range db.freed {
				db.release(p)
			}
		}
	}
	db.inTxn = false
	return nil
}

// PendingCommit is a transaction published but not yet durable: the root
// and generation are installed and the FASE's epoch is in flight through
// the flush pipeline. Await makes it durable (and only then releases the
// superseded pages). Until Await returns, a crash rolls the transaction
// back, so its effects must not be acknowledged externally. The record
// belongs to the DB and is reused by the second CommitPublish after the
// one that returned it.
type PendingCommit struct {
	db     *DB
	ticket atlas.FASETicket
	gen    uint64
	freed  []uint64
}

// CommitPublish is the overlap-friendly half of Commit: it installs the new
// root, bumps the generation and publishes the FASE without waiting for
// persistence, so the caller can start the next transaction (whose stores
// and undo logging overlap this one's background drain) before calling
// Await. Without a pipelined runtime the publish degenerates to a
// synchronous FASE end and Await is a cheap no-op, so callers may use the
// split pair unconditionally.
func (db *DB) CommitPublish() (*PendingCommit, error) {
	if !db.inTxn {
		return nil, fmt.Errorf("mdb: commit outside transaction")
	}
	db.t.Store64(db.meta+8, db.Generation()+1)
	tk := db.t.FASEPublish()
	pc := &db.pend[db.pendIdx]
	db.pendIdx ^= 1
	pc.db, pc.ticket, pc.gen = db, tk, db.Generation()
	pc.freed = pc.freed[:0]
	if db.recycle {
		pc.freed = append(pc.freed, db.freed...)
	}
	db.inTxn = false
	db.freed = db.freed[:0]
	return pc, nil
}

// Await blocks until the published transaction is durable, then recycles
// (or hands to the free hook) the page versions it superseded. Must be
// called from the store's single writer, before any later transaction's
// Await.
func (pc *PendingCommit) Await() {
	db := pc.db
	db.t.FASEAwait(pc.ticket)
	if db.recycle && len(pc.freed) > 0 {
		if db.freeHook != nil {
			db.freeHook(pc.gen, pc.freed)
		} else {
			for _, p := range pc.freed {
				db.release(p)
			}
		}
	}
	pc.freed = pc.freed[:0]
}

// Generation returns pc's committed generation.
func (pc *PendingCommit) Generation() uint64 { return pc.gen }

// Abort rolls the current transaction back: the FASE's undo entries are
// applied in reverse (restoring root and generation, which unpublishes
// every page the transaction wrote) and the pages allocated by the
// transaction are returned to the pool, last first, so the free stack is
// back in its pre-transaction order. The committed tree is untouched —
// exactly the state a crash mid-transaction plus recovery would yield.
// Abort fails (with the store left as recovery would leave it) only when
// the undo log overflowed.
func (db *DB) Abort() error {
	if !db.inTxn {
		return fmt.Errorf("mdb: abort outside transaction")
	}
	err := db.t.FASEAbort()
	if err == nil {
		for i := len(db.fresh) - 1; i >= 0; i-- {
			db.release(db.fresh[i])
		}
	}
	db.inTxn = false
	db.freed = db.freed[:0]
	return err
}

// SetFreeHook redirects the superseded pages of every commit to fn instead
// of recycling them immediately. A service layer serving lock-free snapshot
// readers uses this to defer reuse until no snapshot older than gen is
// live, then returns the pages with RecyclePages. fn runs on the committing
// goroutine, after the transaction is durable; pages is the transaction's
// own scratch, valid only during the call, so fn copies what it keeps.
// Passing nil restores immediate recycling.
func (db *DB) SetFreeHook(fn func(gen uint64, pages []uint64)) { db.freeHook = fn }

// RecyclePages returns pages previously handed to the free hook to the
// pool. Like all mutating methods it must be called from the store's single
// writer (the free stack is not safe for concurrent update).
func (db *DB) RecyclePages(pages []uint64) {
	for _, p := range pages {
		db.release(p)
	}
}

// PoolRemaining reports how many pages the store can still allocate.
func (db *DB) PoolRemaining() int { return len(db.stamp) - int(db.cursor) + len(db.free) }

// touch returns a mutable version of page p within the current
// transaction, copying it on first touch (copy-on-write).
//
// No lookup is needed to copy a page once: the caller re-points the parent
// slot (or the meta root) at the copy before the next descent, so the old
// page is never reached again — unless an operation fails part-way, which
// is why a failed transaction must be aborted.
func (db *DB) touch(p uint64) (uint64, error) {
	if i, ok := db.pageIndex(p); ok && db.stamp[i] == db.txnSeq {
		return p, nil
	}
	c, err := db.alloc()
	if err != nil {
		return 0, err
	}
	// Copy the whole page: the COW write burst the paper's MDB exhibits,
	// one store event per word. The copy is private until the root publish.
	db.t.CopyPrivate(c, p, pageBytes)
	db.freed = append(db.freed, p)
	return c, nil
}

func (db *DB) newPage(typ uint64) (uint64, error) {
	p, err := db.alloc()
	if err != nil {
		return 0, err
	}
	db.setHdr(p, typ, 0)
	return p, nil
}

// childIndex returns the branch slot whose subtree covers k: the largest i
// with key(i) ≤ k, or 0 when k precedes every separator.
func (db *DB) childIndex(p uint64, k uint64) int {
	n := db.nkeys(p)
	i := n - 1
	for i > 0 && db.key(p, i) > k {
		i--
	}
	return i
}

// Put inserts or updates a key inside the current transaction.
func (db *DB) Put(k, v uint64) error {
	if !db.inTxn {
		return fmt.Errorf("mdb: Put outside transaction")
	}
	root := db.t.Load64(db.meta)
	if root == 0 {
		leaf, err := db.newPage(pageLeaf)
		if err != nil {
			return err
		}
		db.setHdr(leaf, pageLeaf, 1)
		db.setKey(leaf, 0, k)
		db.setVal(leaf, 0, v)
		db.t.Store64(db.meta, leaf)
		return nil
	}
	newRoot, split, err := db.insert(root, k, v)
	if err != nil {
		return err
	}
	if split != 0 {
		// Root split: new branch with the two subtrees.
		nr, err := db.newPage(pageBranch)
		if err != nil {
			return err
		}
		db.setHdr(nr, pageBranch, 2)
		db.setKey(nr, 0, db.key(newRoot, 0))
		db.setVal(nr, 0, newRoot)
		db.setKey(nr, 1, db.key(split, 0))
		db.setVal(nr, 1, split)
		newRoot = nr
	}
	db.t.Store64(db.meta, newRoot)
	return nil
}

// insert adds k:v under page p, returning p's mutable replacement and, if
// p split, the new right sibling.
func (db *DB) insert(p uint64, k, v uint64) (replacement, split uint64, err error) {
	c, err := db.touch(p)
	if err != nil {
		return 0, 0, err
	}
	if db.ptype(c) == pageLeaf {
		return db.insertLeaf(c, k, v)
	}
	i := db.childIndex(c, k)
	childNew, childSplit, err := db.insert(db.val(c, i), k, v)
	if err != nil {
		return 0, 0, err
	}
	db.setVal(c, i, childNew)
	db.setKey(c, i, db.key(childNew, 0)) // min-key may have decreased
	if childSplit != 0 {
		return db.insertEntry(c, i+1, db.key(childSplit, 0), childSplit)
	}
	return c, 0, nil
}

func (db *DB) insertLeaf(c uint64, k, v uint64) (uint64, uint64, error) {
	n := db.nkeys(c)
	pos := 0
	for pos < n && db.key(c, pos) < k {
		pos++
	}
	if pos < n && db.key(c, pos) == k {
		db.setVal(c, pos, v) // update in place (page is a txn copy)
		return c, 0, nil
	}
	return db.insertEntry(c, pos, k, v)
}

// insertEntry inserts (k, v) at slot pos of page c, splitting if full.
func (db *DB) insertEntry(c uint64, pos int, k, v uint64) (uint64, uint64, error) {
	n := db.nkeys(c)
	typ := db.ptype(c)
	if n < order {
		for j := n; j > pos; j-- {
			db.setKey(c, j, db.key(c, j-1))
			db.setVal(c, j, db.val(c, j-1))
		}
		db.setKey(c, pos, k)
		db.setVal(c, pos, v)
		db.setHdr(c, typ, n+1)
		return c, 0, nil
	}
	// Split: left keeps the lower half, right gets the upper half; then
	// insert into the proper side.
	right, err := db.newPage(typ)
	if err != nil {
		return 0, 0, err
	}
	half := order / 2
	for j := half; j < order; j++ {
		db.setKey(right, j-half, db.key(c, j))
		db.setVal(right, j-half, db.val(c, j))
	}
	db.setHdr(right, typ, order-half)
	db.setHdr(c, typ, half)
	if pos <= half {
		if _, _, err := db.insertEntry(c, pos, k, v); err != nil {
			return 0, 0, err
		}
	} else {
		if _, _, err := db.insertEntry(right, pos-half, k, v); err != nil {
			return 0, 0, err
		}
	}
	return c, right, nil
}

// Get looks up a key against the current committed (or in-transaction)
// root.
func (db *DB) Get(k uint64) (uint64, bool) {
	p := db.t.Load64(db.meta)
	return db.getFrom(p, k)
}

// GetSnapshot looks up k in an explicit snapshot root (see Snapshot).
func (db *DB) GetSnapshot(root, k uint64) (uint64, bool) { return db.getFrom(root, k) }

// Snapshot returns the current root for later snapshot reads. Snapshots
// stay valid until a later transaction recycles their pages; concurrent
// long-lived readers should disable recycling (see DisableRecycling).
func (db *DB) Snapshot() uint64 { return db.t.Load64(db.meta) }

// DisableRecycling stops page reuse, giving persistent snapshot validity
// at the cost of pool growth.
func (db *DB) DisableRecycling() { db.recycle = false }

func (db *DB) getFrom(p uint64, k uint64) (uint64, bool) {
	for p != 0 {
		if db.ptype(p) == pageLeaf {
			n := db.nkeys(p)
			for i := 0; i < n; i++ {
				if db.key(p, i) == k {
					return db.val(p, i), true
				}
			}
			return 0, false
		}
		p = db.val(p, db.childIndex(p, k))
	}
	return 0, false
}

// Delete removes a key inside the current transaction; it reports whether
// the key was present.
func (db *DB) Delete(k uint64) (bool, error) {
	if !db.inTxn {
		return false, fmt.Errorf("mdb: Delete outside transaction")
	}
	root := db.t.Load64(db.meta)
	if root == 0 {
		return false, nil
	}
	// remove COW-copies the descent path even when the key is absent, so
	// the new root must be installed unconditionally: the old path pages
	// are already queued for recycling.
	newRoot, found, err := db.remove(root, k)
	if err != nil {
		return false, err
	}
	db.t.Store64(db.meta, newRoot)
	return found, nil
}

// remove deletes k under p; returns the mutable replacement (0 when the
// subtree became empty).
func (db *DB) remove(p uint64, k uint64) (uint64, bool, error) {
	c, err := db.touch(p)
	if err != nil {
		return 0, false, err
	}
	if db.ptype(c) == pageLeaf {
		n := db.nkeys(c)
		for i := 0; i < n; i++ {
			if db.key(c, i) == k {
				for j := i; j < n-1; j++ {
					db.setKey(c, j, db.key(c, j+1))
					db.setVal(c, j, db.val(c, j+1))
				}
				db.setHdr(c, pageLeaf, n-1)
				if n-1 == 0 {
					db.freed = append(db.freed, c) // unlinked: recycle with the rest
					return 0, true, nil
				}
				return c, true, nil
			}
		}
		return c, false, nil
	}
	i := db.childIndex(c, k)
	childNew, found, err := db.remove(db.val(c, i), k)
	if err != nil {
		return 0, false, err
	}
	// The child was copied whether or not the key was found; it must be
	// re-linked either way, or this page would keep pointing at a page
	// already queued for recycling.
	if childNew == 0 {
		// Drop the emptied child entry.
		n := db.nkeys(c)
		for j := i; j < n-1; j++ {
			db.setKey(c, j, db.key(c, j+1))
			db.setVal(c, j, db.val(c, j+1))
		}
		db.setHdr(c, pageBranch, n-1)
		if n-1 == 0 {
			db.freed = append(db.freed, c)
			return 0, true, nil
		}
		return c, true, nil
	}
	db.setVal(c, i, childNew)
	db.setKey(c, i, db.key(childNew, 0))
	return c, found, nil
}

// Scan visits all key/value pairs in ascending key order from the current
// root (a read-only traversal; the paper's Mtest interleaves these with
// inserts and deletes).
func (db *DB) Scan(fn func(k, v uint64) bool) {
	db.scanFrom(db.t.Load64(db.meta), fn)
}

func (db *DB) scanFrom(p uint64, fn func(k, v uint64) bool) bool {
	if p == 0 {
		return true
	}
	n := db.nkeys(p)
	if db.ptype(p) == pageLeaf {
		for i := 0; i < n; i++ {
			if !fn(db.key(p, i), db.val(p, i)) {
				return false
			}
		}
		return true
	}
	for i := 0; i < n; i++ {
		if !db.scanFrom(db.val(p, i), fn) {
			return false
		}
	}
	return true
}

// Count returns the number of keys (full traversal).
func (db *DB) Count() int {
	n := 0
	db.Scan(func(_, _ uint64) bool { n++; return true })
	return n
}

// CheckInvariants validates tree structure: key ordering within pages,
// min-key separators matching child minima, and leaf depth uniformity.
func (db *DB) CheckInvariants() error {
	root := db.t.Load64(db.meta)
	if root == 0 {
		return nil
	}
	_, err := db.checkPage(root, 0)
	return err
}

func (db *DB) checkPage(p uint64, depth int) (leafDepth int, err error) {
	n := db.nkeys(p)
	if n <= 0 || n > order {
		return 0, fmt.Errorf("mdb: page %d has %d keys", p, n)
	}
	for i := 1; i < n; i++ {
		if db.key(p, i-1) >= db.key(p, i) {
			return 0, fmt.Errorf("mdb: page %d keys out of order at %d", p, i)
		}
	}
	if db.ptype(p) == pageLeaf {
		return depth, nil
	}
	want := -1
	for i := 0; i < n; i++ {
		child := db.val(p, i)
		if db.key(child, 0) != db.key(p, i) {
			return 0, fmt.Errorf("mdb: separator %d of page %d (key %d) != child min %d",
				i, p, db.key(p, i), db.key(child, 0))
		}
		d, err := db.checkPage(child, depth+1)
		if err != nil {
			return 0, err
		}
		if want == -1 {
			want = d
		} else if d != want {
			return 0, fmt.Errorf("mdb: uneven leaf depth under page %d", p)
		}
	}
	return want, nil
}

// reachable marks, by page index, every page the committed root reaches.
// It follows only pointers to page starts in the arena and visits each page
// once, so a damaged tree yields a wrong set, never a panic or a loop.
func (db *DB) reachable() []bool {
	live := make([]bool, len(db.stamp))
	stack := []uint64{db.t.Load64(db.meta)}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i, ok := db.pageIndex(p)
		if !ok || live[i] {
			continue
		}
		live[i] = true
		if db.ptype(p) == pageBranch {
			for j := range min(db.nkeys(p), order) {
				stack = append(stack, db.val(p, j))
			}
		}
	}
	return live
}

// CheckPages validates the page allocator against the tree: the pages
// below the cursor are exactly the reachable ones plus the free ones, none
// of them both and none free twice — so PoolRemaining is the capacity
// minus the reachable pages. It holds when no superseded page is parked
// with a free hook or behind an unawaited PendingCommit: after Attach, for
// example, or after a commit that recycled immediately.
func (db *DB) CheckPages() error {
	seen := db.reachable()
	for _, i := range db.free {
		if seen[i] {
			return fmt.Errorf("mdb: free page %d is reachable from the root or free twice", i)
		}
		seen[i] = true
	}
	for i, s := range seen {
		if below := uint32(i) < db.cursor; s != below {
			return fmt.Errorf("mdb: page %d is reachable or free: %v; below the cursor %d: %v", i, s, db.cursor, below)
		}
	}
	return nil
}

// PageLines returns the number of cache lines per page (for locality
// reasoning in tests and docs).
func PageLines() int { return (pageBytes + trace.LineSize - 1) / trace.LineSize }
