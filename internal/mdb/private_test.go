package mdb

import (
	"math/rand"
	"reflect"
	"testing"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
	"nvmcache/internal/trace"
)

// The shape the repository benchmark's mdb rungs run on: one shard's share
// of the preloaded key set under the serving configuration's policy and
// page pool, filled 64 puts to a transaction. The undo log is sized for the
// logged reference (~115 entries per update), not for the store's own 2.
const (
	shapeKeys  = 1 << 14
	shapeBatch = 64
	shapePages = 1 << 13
	shapeLog   = 1 << 14
)

// shapeDB builds a store of the benchmark's shape through the constructor
// open and returns it with the keys it holds and a counter of the undo
// entries its thread records.
func shapeDB(t *testing.T, open func(*atlas.Thread, int) (*DB, error)) (rt *atlas.Runtime, db *DB, keys []uint64, undo *int) {
	t.Helper()
	undo = new(int)
	opts := atlas.Options{Policy: core.SoftCacheOnline, Config: core.DefaultConfig(), LogEntries: shapeLog,
		UndoHook: func(op atlas.UndoOp) {
			if op == atlas.UndoRecord {
				*undo++
			}
		}}
	// Sized for the larger block, so either constructor fits.
	rt = atlas.NewRuntime(pmem.New(int(blockBytes(paperOrder))*shapePages+16*shapeLog+1<<16), opts)
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	th.SetRecording(false)
	if db, err = open(th, shapePages); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seen := make(map[uint64]bool, shapeKeys)
	for len(keys) < shapeKeys {
		if k := uint64(rng.Intn(1 << 16)); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	batch := func(ks []uint64) {
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			if err := db.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(keys); i += shapeBatch {
		batch(keys[i : i+shapeBatch])
	}
	// Past the online policy's sampling burst, as a serving shard is.
	for i := 0; th.Stores() < 2*int64(opts.Config.BurstLength); i = (i + shapeBatch) % len(keys) {
		batch(keys[i : i+shapeBatch])
	}
	return rt, db, keys, undo
}

// refUpdate overwrites the existing key k in its own transaction the way
// the store did before private stores existed: every page of the
// root-to-leaf path copied one word at a time through the logged Store64,
// every slot written through Store64, the superseded pages recycled once
// the transaction is durable.
func refUpdate(db *DB, k, v uint64) {
	t := db.t
	t.FASEBegin()
	var superseded []uint64
	var cow func(p uint64) uint64
	cow = func(p uint64) uint64 {
		c, err := db.alloc()
		if err != nil {
			panic(err)
		}
		superseded = append(superseded, p)
		for off := uint64(0); off < db.size; off += 8 {
			t.Store64(c+off, t.Load64(p+off))
		}
		if db.ptype(c) == pageLeaf {
			for i := 0; i < db.nkeys(c); i++ {
				if db.key(c, i) == k {
					t.Store64(c+db.valsOff+uint64(8*i), v)
					return c
				}
			}
			panic("refUpdate: key not in the tree")
		}
		i := db.childIndex(c, k)
		child := cow(db.val(c, i))
		t.Store64(c+db.valsOff+uint64(8*i), child)
		t.Store64(c+keysOff+uint64(8*i), db.key(child, 0))
		return c
	}
	t.Store64(db.meta, cow(t.Load64(db.meta)))
	t.Store64(db.meta+8, db.Generation()+1)
	t.FASEEnd()
	db.RecyclePages(superseded)
}

// TestPutCounts is the exact-count gate on the update path. On a tree of
// the benchmark's shape one Begin+Put+Commit records two undo entries (the
// meta root and the generation), and it issues the same store events in the
// same order, and so the same flushes, as a reference that performs the
// update with the word-by-word Store64 loop on an identically built store —
// the optimisation and the identity of the stream the policy sees. This is
// the paper's geometry, built through OpenSized: a six-level path is 6×17
// copied words (136-byte pages), 11 slot writes (the leaf value, then a
// child pointer and a separator in each of the 5 branches), root and
// generation — 115 stores. The FASE's distinct lines are 6×3 page lines
// and the meta line, 19; the online policy settles at 15 lines here, so two
// of them are evicted and written again before the drain: 21 write-backs.
func TestPutCounts(t *testing.T) { checkPutCounts(t, OpenSized, 115, 21) }

// TestPutCountsServing is the same gate on the serving geometry, built
// through Create: the tree keeps its six levels, each copy is 15 words
// (120-byte pages), so 6×15 + 11 + 2 = 103 stores, and every page is 2
// lines, so the FASE has 6×2 + 1 = 13 distinct lines. The online policy
// settles at 13 lines here, and no line is written back twice: 13
// write-backs.
func TestPutCountsServing(t *testing.T) { checkPutCounts(t, Create, 103, 13) }

func checkPutCounts(t *testing.T, open func(*atlas.Thread, int) (*DB, error), wantStores, wantFlushes int64) {
	const txns = 256
	type counts struct {
		stores, flushes int64
		undo            int
		stream          *trace.ThreadSeq
	}
	measure := func(update func(db *DB, k, v uint64)) counts {
		rt, db, keys, undo := shapeDB(t, open)
		th := db.t
		stores, flushes, undo0 := th.Stores(), th.FlushStats().Total(), *undo
		th.SetRecording(true)
		for i := 0; i < txns; i++ {
			update(db, keys[(i*131)%len(keys)], uint64(i))
		}
		th.SetRecording(false)
		if err := db.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for i := txns - shapeBatch; i < txns; i++ {
			if v, ok := db.Get(keys[(i*131)%len(keys)]); !ok || v != uint64(i) {
				t.Fatalf("update %d not applied: %d, %v", i, v, ok)
			}
		}
		return counts{th.Stores() - stores, th.FlushStats().Total() - flushes, *undo - undo0, rt.Trace().Threads[0]}
	}
	got := measure(func(db *DB, k, v uint64) { put(t, db, k, v) })
	ref := measure(refUpdate)

	if got.undo != 2*txns {
		t.Errorf("undo entries per update = %v, want 2", float64(got.undo)/txns)
	}
	if ref.undo <= got.undo {
		t.Errorf("reference logged %d entries, private path %d: reference is not the logged path", ref.undo, got.undo)
	}
	if got.stores != ref.stores || got.flushes != ref.flushes {
		t.Errorf("stores, flushes = %d, %d; word-by-word reference %d, %d", got.stores, got.flushes, ref.stores, ref.flushes)
	}
	if !reflect.DeepEqual(got.stream, ref.stream) {
		t.Errorf("store-event stream differs from the word-by-word reference's")
	}
	if got.stores != wantStores*txns || got.flushes != wantFlushes*txns {
		t.Errorf("per update: %v stores, %v flushes, want %d and %d",
			float64(got.stores)/txns, float64(got.flushes)/txns, wantStores, wantFlushes)
	}
}

// crashSite is the panic a crashingSink raises at its armed site.
type crashSite struct{}

// crashingSink numbers every line write-back — mid-FASE evictions and each
// line of a FASE-end drain — and panics before the armed one.
type crashingSink struct {
	core.FlushSink
	armed bool
	next  int
	site  int
}

func (s *crashingSink) point() {
	if s.armed {
		if s.next == s.site {
			panic(crashSite{})
		}
		s.next++
	}
}

func (s *crashingSink) FlushLine(line trace.LineAddr) {
	s.point()
	s.FlushSink.FlushLine(line)
}

func (s *crashingSink) Drain(lines []trace.LineAddr) {
	for _, l := range lines {
		s.point()
		s.FlushSink.FlushLine(l)
	}
	s.FlushSink.Drain(nil)
}

// TestPrivatePagesCrashAtEveryFlush crashes one update transaction (an
// overwrite, an insert and a delete on a tree at least four levels deep) at
// every line write-back it issues, with a one-line software cache so that
// private page lines reach NVRAM by eviction in the middle of the FASE.
// After recovery the tree must be exactly the pre-transaction tree, and the
// allocator Attach rebuilds must account for every page: free ∪ reachable
// is everything below the cursor, no page is both, and the pages the
// crashed transaction took are all free again.
func TestPrivatePagesCrashAtEveryFlush(t *testing.T) { forOrders(t, testPrivatePagesCrashAtEveryFlush) }

func testPrivatePagesCrashAtEveryFlush(t *testing.T, order int) {
	const preload = 400
	cfg := core.DefaultConfig()
	cfg.PresetSize = 1
	fired := 0
	for site := 0; ; site++ {
		sink := &crashingSink{site: site}
		h := pmem.New(1 << 20)
		rt := atlas.NewRuntime(h, atlas.Options{Policy: core.SoftCacheOffline, Config: cfg, DisableTrace: true,
			WrapSink: func(_ int32, inner core.FlushSink) core.FlushSink {
				sink.FlushSink = inner
				return sink
			}})
		th, err := rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		db, err := openOrder(th, 1<<10, order)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[uint64]uint64, preload)
		for i := uint64(0); i < preload; i += 8 {
			if err := db.Begin(); err != nil {
				t.Fatal(err)
			}
			for k := i; k < i+8; k++ {
				want[k*7919%10007] = k
				if err := db.Put(k*7919%10007, k); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if d, err := db.checkPage(th.Load64(db.meta), 1); err != nil || d < 4 {
			t.Fatalf("preloaded tree: depth %d, %v; want at least 4 levels", d, err)
		}

		remaining := db.PoolRemaining()
		sink.armed = true
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(crashSite); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			if err := db.Begin(); err != nil {
				t.Fatal(err)
			}
			if err := db.Put(3*7919%10007, 1<<40); err != nil {
				t.Fatal(err)
			}
			if err := db.Put(10008, 1<<41); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Delete(5 * 7919 % 10007); err != nil {
				t.Fatal(err)
			}
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
			return false
		}()
		if !crashed {
			if sink.next == 0 || fired != sink.next {
				t.Fatalf("crashed at %d of the transaction's %d write-back sites", fired, sink.next)
			}
			t.Logf("%d write-back sites, each crashed at and recovered from", fired)
			return
		}
		fired++
		h.Crash()
		if _, err := atlas.Recover(h); err != nil {
			t.Fatalf("site %d: recover: %v", site, err)
		}
		th2, err := atlas.NewRuntime(h, atlas.Options{Policy: core.Lazy, Config: cfg, DisableTrace: true}).NewThread()
		if err != nil {
			t.Fatal(err)
		}
		db2, err := Reopen(th2)
		if err != nil {
			t.Fatalf("site %d: reopen: %v", site, err)
		}
		if err := db2.CheckInvariants(); err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
		if n := db2.Count(); n != len(want) {
			t.Fatalf("site %d: %d keys after recovery, want %d", site, n, len(want))
		}
		for k, v := range want {
			if got, ok := db2.Get(k); !ok || got != v {
				t.Fatalf("site %d: key %d = %d, %v; want its pre-transaction value %d", site, k, got, ok, v)
			}
		}
		if err := db2.CheckPages(); err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
		if got := db2.PoolRemaining(); got != remaining {
			t.Fatalf("site %d: %d pages remaining after recovery, %d before the transaction", site, got, remaining)
		}
		if err := h.CheckConsistency(); err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
	}
}
