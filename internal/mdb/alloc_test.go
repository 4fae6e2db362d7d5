package mdb

import (
	"errors"
	"maps"
	"testing"
	"testing/quick"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
	"nvmcache/internal/testutil"
)

// TestPageAllocFreeReuse: the allocator reuses the most recently released
// page first and takes fresh arena space only when none is left.
func TestPageAllocFreeReuse(t *testing.T) {
	_, db := newDB(t, core.Lazy)
	a, _ := db.alloc() // a 32 768-page pool: the checks below catch a failure
	b, _ := db.alloc()
	db.release(a)
	if c, _ := db.alloc(); a == b || c != a || db.cursor != 2 {
		t.Fatalf("allocated %d and %d, released the first, then got %d with the cursor at %d", a, b, c, db.cursor)
	}
}

// tinyDB opens a store whose page pool holds only pages pages.
func tinyDB(t *testing.T, pages int) (*atlas.Runtime, *DB) {
	t.Helper()
	opts := atlas.DefaultOptions()
	opts.Policy = core.Lazy
	rt := atlas.NewRuntime(pmem.New(1<<20), opts)
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenSized(th, pages)
	if err != nil {
		t.Fatal(err)
	}
	return rt, db
}

// TestPageAllocExhaustion: the allocator hands out exactly its capacity in
// distinct pages, refuses the next request, and serves one again as soon as
// a page is released.
func TestPageAllocExhaustion(t *testing.T) {
	_, db := tinyDB(t, 4)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	pages := make([]uint64, 0, 4)
	for i := 0; i < 4; i++ {
		p, err := db.alloc()
		if err != nil {
			t.Fatalf("alloc %d of 4: %v", i, err)
		}
		if seen[p] {
			t.Fatalf("page %d handed out twice", p)
		}
		seen[p] = true
		pages = append(pages, p)
	}
	if _, err := db.alloc(); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if db.PoolRemaining() != 0 {
		t.Fatalf("PoolRemaining = %d on a dry pool", db.PoolRemaining())
	}
	db.release(pages[2])
	if p, err := db.alloc(); err != nil || p != pages[2] {
		t.Fatalf("allocation after release: page %d, %v; want %d", p, err, pages[2])
	}
}

// TestPageAllocExhaustionSentinel: a dry pool is load, not corruption. The
// allocator's error wraps ErrPoolExhausted, and aborting the transaction
// that hit it gives every page back.
func TestPageAllocExhaustionSentinel(t *testing.T) {
	_, db := tinyDB(t, 4)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.alloc(); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	_, err := db.alloc()
	if err == nil {
		t.Fatal("alloc succeeded past capacity")
	}
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("error %v does not wrap ErrPoolExhausted", err)
	}
	if err := db.Abort(); err != nil {
		t.Fatal(err)
	}
	if db.PoolRemaining() != 4 {
		t.Fatalf("PoolRemaining = %d after abort, want 4", db.PoolRemaining())
	}
	if err := db.CheckPages(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.alloc(); err != nil {
		t.Fatalf("alloc after abort: %v", err)
	}
}

// TestFreePagesSurviveCrash: a page released before a crash is free after
// recovery, though the allocator persisted nothing, and it is the one the
// next allocation hands out.
func TestFreePagesSurviveCrash(t *testing.T) {
	rt, db := tinyDB(t, 8)
	put(t, db, 1, 1)
	old := db.t.Load64(db.meta)
	put(t, db, 1, 2) // copies the root page and releases the old one
	if db.PoolRemaining() != 7 || len(db.free) != 1 {
		t.Fatalf("PoolRemaining %d, %d free below the cursor; want 7 and 1", db.PoolRemaining(), len(db.free))
	}
	db2 := reopen(t, rt)
	if db2.PoolRemaining() != 7 || len(db2.free) != 1 {
		t.Fatalf("after the crash: PoolRemaining %d, %d free below the cursor; want 7 and 1", db2.PoolRemaining(), len(db2.free))
	}
	if err := db2.Begin(); err != nil {
		t.Fatal(err)
	}
	if p, err := db2.alloc(); err != nil || p != old {
		t.Fatalf("recovered allocator handed out %d (%v), want the released %d", p, err, old)
	}
	if err := db2.Abort(); err != nil {
		t.Fatal(err)
	}
	if v, ok := db2.Get(1); !ok || v != 2 {
		t.Fatalf("Get(1) = %d, %v after the crash, want 2", v, ok)
	}
}

// TestAttachRejectsGarbage: Attach trusts nothing it reads. An arena word
// that does not lead to a page arena is refused with an error, a capacity
// larger than the heap is clamped to it, and a tree whose pointers leave
// the arena or loop back is walked without a panic.
func TestAttachRejectsGarbage(t *testing.T) {
	h := pmem.New(1 << 22)
	opts := atlas.DefaultOptions()
	opts.Policy = core.Lazy
	th, err := atlas.NewRuntime(h, opts).NewThread()
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenSized(th, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 40; k++ {
		if err := db.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	meta := db.MetaAddr()
	arena := h.ReadUint64(meta + 16)

	h.WriteUint64(arena+8, 1<<40)
	big, err := Attach(th, meta)
	if err != nil {
		t.Fatal(err)
	}
	if fit := (h.Size() - arena - arenaHdr) / pageBlock; uint64(len(big.stamp)) != fit {
		t.Fatalf("capacity %d not clamped to the heap's %d pages", len(big.stamp), fit)
	}
	if err := big.CheckPages(); err != nil {
		t.Fatal(err)
	}
	h.WriteUint64(arena+8, 256)

	root := h.ReadUint64(meta)
	if db.ptype(root) != pageBranch {
		t.Fatal("root is not a branch")
	}
	h.WriteUint64(root+valsOff, root+8)  // not the start of a page
	h.WriteUint64(root+valsOff+8, 1<<50) // outside the heap
	h.WriteUint64(root+valsOff+16, root) // a cycle
	if _, err := Attach(th, meta); err != nil {
		t.Fatalf("Attach of a damaged tree: %v", err)
	}

	for _, bad := range []uint64{0, 7, h.Size(), meta} {
		h.WriteUint64(meta+16, bad)
		if _, err := Attach(th, meta); err == nil {
			t.Errorf("Attach accepted arena word %d", bad)
		}
	}
}

// Property: under random transactions — committed, aborted, or cut short
// by a crash and recovered — the page allocator never loses a page and
// never owns one twice: after each of them CheckPages holds and the tree
// reads exactly the committed state.
func TestQuickPagesAcrossCrashes(t *testing.T) {
	f := func(seed int64) bool {
		rng := testutil.Rand(t, seed)
		h := pmem.New(1 << 22)
		opts := atlas.DefaultOptions()
		opts.Policy = core.Lazy
		opts.LogEntries = 1 << 10
		th, err := atlas.NewRuntime(h, opts).NewThread()
		if err != nil {
			return false
		}
		db, err := OpenSized(th, 512)
		if err != nil {
			return false
		}
		ref := map[uint64]uint64{}
		for txn := 0; txn < 40; txn++ {
			if err := db.Begin(); err != nil {
				return false
			}
			next := maps.Clone(ref)
			for op := 1 + rng.Intn(12); op > 0; op-- {
				k := uint64(rng.Intn(80))
				if rng.Intn(3) == 0 {
					if _, err := db.Delete(k); err != nil {
						return false
					}
					delete(next, k)
				} else {
					if err := db.Put(k, uint64(txn)); err != nil {
						return false
					}
					next[k] = uint64(txn)
				}
			}
			switch rng.Intn(4) {
			case 0:
				if err := db.Abort(); err != nil {
					return false
				}
			case 1:
				h.Crash()
				if _, err := atlas.Recover(h); err != nil {
					return false
				}
				if th, err = atlas.NewRuntime(h, opts).NewThread(); err != nil {
					return false
				}
				if db, err = Reopen(th); err != nil {
					return false
				}
			default:
				if err := db.Commit(); err != nil {
					return false
				}
				ref = next
			}
			if err := db.CheckPages(); err != nil {
				t.Logf("transaction %d: %v", txn, err)
				return false
			}
			if db.Count() != len(ref) {
				return false
			}
			for k, v := range ref {
				if got, ok := db.Get(k); !ok || got != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
