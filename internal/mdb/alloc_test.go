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
	forOrders(t, func(t *testing.T, order int) {
		_, db := tinyDB(t, 8, order)
		a, _ := db.alloc() // an 8-page pool: the checks below catch a failure
		b, _ := db.alloc()
		db.release(a)
		if c, _ := db.alloc(); a == b || c != a || db.cursor != 2 {
			t.Fatalf("allocated %d and %d, released the first, then got %d with the cursor at %d", a, b, c, db.cursor)
		}
		if b-a != db.block {
			t.Fatalf("pages %d and %d are not one %d-byte block apart", a, b, db.block)
		}
	})
}

// tinyDB opens a store of the given order whose page pool holds only pages
// pages.
func tinyDB(t *testing.T, pages, order int) (*atlas.Runtime, *DB) {
	t.Helper()
	opts := atlas.DefaultOptions()
	opts.Policy = core.Lazy
	rt := atlas.NewRuntime(pmem.New(1<<20), opts)
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	db, err := openOrder(th, pages, order)
	if err != nil {
		t.Fatal(err)
	}
	return rt, db
}

// TestPageAllocExhaustion: the allocator hands out exactly its capacity in
// distinct pages, refuses the next request, and serves one again as soon as
// a page is released.
func TestPageAllocExhaustion(t *testing.T) { forOrders(t, testPageAllocExhaustion) }

func testPageAllocExhaustion(t *testing.T, order int) {
	_, db := tinyDB(t, 4, order)
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
func TestPageAllocExhaustionSentinel(t *testing.T) { forOrders(t, testPageAllocExhaustionSentinel) }

func testPageAllocExhaustionSentinel(t *testing.T, order int) {
	_, db := tinyDB(t, 4, order)
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
func TestFreePagesSurviveCrash(t *testing.T) { forOrders(t, testFreePagesSurviveCrash) }

func testFreePagesSurviveCrash(t *testing.T, order int) {
	rt, db := tinyDB(t, 8, order)
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
func TestAttachRejectsGarbage(t *testing.T) { forOrders(t, testAttachRejectsGarbage) }

func testAttachRejectsGarbage(t *testing.T, order int) {
	h := pmem.New(1 << 22)
	opts := atlas.DefaultOptions()
	opts.Policy = core.Lazy
	th, err := atlas.NewRuntime(h, opts).NewThread()
	if err != nil {
		t.Fatal(err)
	}
	db, err := openOrder(th, 256, order)
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
	if fit := (h.Size() - arena - arenaHdr) / db.block; uint64(len(big.stamp)) != fit {
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
	h.WriteUint64(root+db.valsOff, root+8)  // not the start of a page
	h.WriteUint64(root+db.valsOff+8, 1<<50) // outside the heap
	h.WriteUint64(root+db.valsOff+16, root) // a cycle
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

// TestAttachRejectsForeignGeometry: Attach lays the pages out by the tree
// order recorded at arena+16, so the order must be one a constructor writes
// and must agree with the recorded block size. An intact arena of either
// order reattaches with its own geometry and contents; an unknown order, an
// order whose block size is not the recorded one, or a torn order word is
// refused with an error, never a panic.
func TestAttachRejectsForeignGeometry(t *testing.T) {
	forOrders(t, func(t *testing.T, order int) {
		rt, db := tinyDB(t, 64, order)
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 40; k++ {
			if err := db.Put(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		h, th, meta := rt.Heap(), db.t, db.MetaAddr()
		arena := h.ReadUint64(meta + 16)

		back, err := Attach(th, meta)
		if err != nil {
			t.Fatalf("Attach of an intact arena: %v", err)
		}
		if back.order != order || back.block != db.block || back.PageLines() != db.PageLines() {
			t.Fatalf("reattached as order %d with %d-byte blocks, want order %d with %d", back.order, back.block, order, db.block)
		}
		for k := uint64(0); k < 40; k++ {
			if v, ok := back.Get(k); !ok || v != k+1 {
				t.Fatalf("Get(%d) = %d, %v after Attach", k, v, ok)
			}
		}
		if err := back.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := back.CheckPages(); err != nil {
			t.Fatal(err)
		}

		attach := func(what string) {
			t.Helper()
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Attach panicked: %v", what, r)
				}
			}()
			if _, err := Attach(th, meta); err == nil {
				t.Errorf("%s: Attach accepted the arena", what)
			}
		}
		other := paperOrder + servingOrder - order
		for _, c := range []struct {
			what string
			word uint64
		}{
			{"unknown order", 11},
			{"zero order", 0},
			{"order whose block is not the recorded one", uint64(other)},
			{"torn order word", uint64(order) | 0xdeadbeef<<32},
		} {
			h.WriteUint64(arena+16, c.word)
			attach(c.what)
		}
		h.WriteUint64(arena+16, uint64(order))
		h.WriteUint64(arena, blockBytes(other))
		attach("block size of the other order")
		h.WriteUint64(arena, blockBytes(order))
		if _, err := Attach(th, meta); err != nil {
			t.Fatalf("Attach after restoring the geometry: %v", err)
		}
	})
}

// Property: under random transactions — committed, aborted, or cut short
// by a crash and recovered — the page allocator never loses a page and
// never owns one twice: after each of them CheckPages holds and the tree
// reads exactly the committed state.
func TestQuickPagesAcrossCrashes(t *testing.T) { forOrders(t, testQuickPagesAcrossCrashes) }

func testQuickPagesAcrossCrashes(t *testing.T, order int) {
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
		db, err := openOrder(th, 512, order)
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
