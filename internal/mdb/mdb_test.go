package mdb

import (
	"errors"
	"nvmcache/internal/testutil"
	"testing"
	"testing/quick"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
)

func newDB(t *testing.T, kind core.PolicyKind) (*atlas.Runtime, *DB) {
	t.Helper()
	h := pmem.New(1 << 24)
	opts := atlas.DefaultOptions()
	opts.Policy = kind
	opts.LogEntries = 1 << 15
	rt := atlas.NewRuntime(h, opts)
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(th)
	if err != nil {
		t.Fatal(err)
	}
	return rt, db
}

func put(t *testing.T, db *DB, k, v uint64) {
	t.Helper()
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(k, v); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetSingle(t *testing.T) {
	_, db := newDB(t, core.Lazy)
	put(t, db, 42, 4200)
	v, ok := db.Get(42)
	if !ok || v != 4200 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	if _, ok := db.Get(43); ok {
		t.Fatal("phantom key")
	}
}

func TestPutUpdate(t *testing.T) {
	_, db := newDB(t, core.Lazy)
	put(t, db, 1, 10)
	put(t, db, 1, 20)
	if v, _ := db.Get(1); v != 20 {
		t.Fatalf("update lost: %d", v)
	}
	if db.Count() != 1 {
		t.Fatalf("Count = %d", db.Count())
	}
}

func TestManyInsertsOrderedScan(t *testing.T) {
	_, db := newDB(t, core.Lazy)
	const n = 500
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := uint64((i * 7919) % 10007) // scattered insert order
		if err := db.Put(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if db.Count() != n {
		t.Fatalf("Count = %d, want %d", db.Count(), n)
	}
	prev := uint64(0)
	first := true
	db.Scan(func(k, _ uint64) bool {
		if !first && k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		prev, first = k, false
		return true
	})
}

func TestDelete(t *testing.T) {
	_, db := newDB(t, core.Lazy)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := db.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i += 2 {
		found, err := db.Delete(i)
		if err != nil || !found {
			t.Fatalf("Delete(%d): %v %v", i, found, err)
		}
	}
	if found, _ := db.Delete(1000); found {
		t.Fatal("deleted nonexistent key")
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 50 {
		t.Fatalf("Count = %d", db.Count())
	}
	for i := uint64(0); i < 100; i++ {
		_, ok := db.Get(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v want %v", i, ok, want)
		}
	}
}

func TestDeleteAllThenReinsert(t *testing.T) {
	_, db := newDB(t, core.Lazy)
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 40; i++ {
		db.Put(i, i)
	}
	for i := uint64(0); i < 40; i++ {
		db.Delete(i)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 0 {
		t.Fatalf("Count = %d after deleting all", db.Count())
	}
	put(t, db, 5, 50)
	if v, ok := db.Get(5); !ok || v != 50 {
		t.Fatal("reinsert after empty failed")
	}
}

func TestTxnDiscipline(t *testing.T) {
	_, db := newDB(t, core.Lazy)
	if err := db.Put(1, 1); err == nil {
		t.Fatal("Put outside txn succeeded")
	}
	if _, err := db.Delete(1); err == nil {
		t.Fatal("Delete outside txn succeeded")
	}
	if err := db.Commit(); err == nil {
		t.Fatal("Commit outside txn succeeded")
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err == nil {
		t.Fatal("nested Begin succeeded")
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationIncrements(t *testing.T) {
	_, db := newDB(t, core.Lazy)
	if db.Generation() != 0 {
		t.Fatal("fresh generation != 0")
	}
	put(t, db, 1, 1)
	put(t, db, 2, 2)
	if db.Generation() != 2 {
		t.Fatalf("generation = %d", db.Generation())
	}
}

func TestSnapshotIsolation(t *testing.T) {
	_, db := newDB(t, core.Lazy)
	db.DisableRecycling() // keep old page versions alive
	put(t, db, 1, 100)
	snap := db.Snapshot()
	put(t, db, 1, 200)
	put(t, db, 2, 300)
	if v, ok := db.GetSnapshot(snap, 1); !ok || v != 100 {
		t.Fatalf("snapshot read = %d, %v; want 100", v, ok)
	}
	if _, ok := db.GetSnapshot(snap, 2); ok {
		t.Fatal("snapshot sees later insert")
	}
	if v, _ := db.Get(1); v != 200 {
		t.Fatal("current root stale")
	}
}

func TestCrashAtomicity(t *testing.T) {
	rt, db := newDB(t, core.Lazy)
	h := rt.Heap()
	put(t, db, 1, 10)
	put(t, db, 2, 20)
	// Crash mid-transaction: the whole txn must vanish.
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	db.Put(3, 30)
	db.Put(1, 999)
	h.Crash()
	if _, err := atlas.Recover(h); err != nil {
		t.Fatal(err)
	}
	// Reattach.
	rt2 := atlas.NewRuntime(h, atlas.Options{Policy: core.Lazy, Config: core.DefaultConfig()})
	th2, err := rt2.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Reopen(th2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v, ok := db2.Get(1); !ok || v != 10 {
		t.Fatalf("key 1 = %d, %v; want committed 10", v, ok)
	}
	if v, ok := db2.Get(2); !ok || v != 20 {
		t.Fatalf("key 2 = %d, %v; want 20", v, ok)
	}
	if _, ok := db2.Get(3); ok {
		t.Fatal("uncommitted insert survived crash")
	}
}

func TestCommittedTxnsSurviveCrash(t *testing.T) {
	rt, db := newDB(t, core.SoftCacheOnline)
	h := rt.Heap()
	const n = 200
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		db.Put(i, i*3)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	h.Crash()
	if _, err := atlas.Recover(h); err != nil {
		t.Fatal(err)
	}
	rt2 := atlas.NewRuntime(h, atlas.DefaultOptions())
	th2, _ := rt2.NewThread()
	db2, err := Reopen(th2)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := db2.Get(i); !ok || v != i*3 {
			t.Fatalf("key %d lost or wrong after crash: %d %v", i, v, ok)
		}
	}
}

// Property: the tree matches a reference map under random interleaved
// puts, deletes and commits, and invariants hold throughout.
func TestQuickTreeMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := testutil.Rand(t, seed)
		h := pmem.New(1 << 24)
		opts := atlas.DefaultOptions()
		opts.Policy = core.Lazy
		opts.LogEntries = 1 << 15
		rt := atlas.NewRuntime(h, opts)
		th, err := rt.NewThread()
		if err != nil {
			return false
		}
		db, err := Open(th)
		if err != nil {
			return false
		}
		ref := map[uint64]uint64{}
		for txn := 0; txn < 10; txn++ {
			if err := db.Begin(); err != nil {
				return false
			}
			for op := 0; op < 30; op++ {
				k := uint64(rng.Intn(60))
				if rng.Intn(4) == 0 {
					found, err := db.Delete(k)
					if err != nil {
						return false
					}
					_, inRef := ref[k]
					if found != inRef {
						return false
					}
					delete(ref, k)
				} else {
					v := rng.Uint64()
					if err := db.Put(k, v); err != nil {
						return false
					}
					ref[k] = v
				}
			}
			if err := db.Commit(); err != nil {
				return false
			}
			if err := db.CheckInvariants(); err != nil {
				return false
			}
		}
		if db.Count() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := db.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMtestRuns(t *testing.T) {
	res, err := RunMtest(MtestConfig{Inserts: 2000, OpsPerTxn: 10, ScanEvery: 20, DeleteFrac: 10, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Threads != 2 {
		t.Fatalf("threads = %d", res.Stats.Threads)
	}
	if res.Stats.TotalFASEs < 100 {
		t.Fatalf("FASEs = %d, too few", res.Stats.TotalFASEs)
	}
	// The paper's regime: hundreds of stores per FASE (COW page copies).
	perFASE := float64(res.Stats.TotalWrites) / float64(res.Stats.TotalFASEs)
	if perFASE < 50 || perFASE > 3000 {
		t.Fatalf("stores/FASE = %.0f, outside the MDB regime", perFASE)
	}
	// Flush ratio ordering must match Table III: LA < SC < AT ≪ ER.
	cfg := core.DefaultConfig()
	cfg.BurstLength = 4096
	la := core.FlushRatio(core.Lazy, cfg, res.Trace)
	sc := core.FlushRatio(core.SoftCacheOnline, cfg, res.Trace)
	at := core.FlushRatio(core.AtlasTable, cfg, res.Trace)
	if !(la < sc && sc < at) {
		t.Fatalf("mdb ratios LA=%v SC=%v AT=%v: want LA < SC < AT", la, sc, at)
	}
}

func TestPageLines(t *testing.T) {
	if PageLines() != 3 {
		t.Fatalf("PageLines = %d, want 3", PageLines())
	}
}

func TestPageRecyclingSurvivesRestart(t *testing.T) {
	rt, db := newDB(t, core.Lazy)
	h := rt.Heap()
	// Generate garbage pages: updates COW the path and free old versions.
	put(t, db, 1, 1)
	for i := 0; i < 20; i++ {
		put(t, db, 1, uint64(i))
	}
	h.Crash()
	if _, err := atlas.Recover(h); err != nil {
		t.Fatal(err)
	}
	rt2 := atlas.NewRuntime(h, atlas.DefaultOptions())
	th2, _ := rt2.NewThread()
	db2, err := Reopen(th2)
	if err != nil {
		t.Fatal(err)
	}
	// The persistent free list survived: the pool hands back recycled
	// pages instead of fresh arena space.
	before := db2.pool.FreeCount()
	if before == 0 {
		t.Fatal("no recycled pages survived the crash")
	}
	if err := db2.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Put(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := db2.Commit(); err != nil {
		t.Fatal(err)
	}
	if db2.pool.FreeCount() >= before+2 {
		t.Fatalf("pool did not reuse recycled pages: %d -> %d", before, db2.pool.FreeCount())
	}
	if v, ok := db2.Get(1); !ok || v != 19 {
		t.Fatalf("data wrong after restart: %d %v", v, ok)
	}
}

func TestOpenSizedExhaustionSurfaces(t *testing.T) {
	h := pmem.New(1 << 22)
	opts := atlas.DefaultOptions()
	opts.Policy = core.Lazy
	opts.LogEntries = 1 << 14
	rt := atlas.NewRuntime(h, opts)
	th, _ := rt.NewThread()
	db, err := OpenSized(th, 4) // absurdly small pool
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	var putErr error
	for i := uint64(0); i < 100 && putErr == nil; i++ {
		putErr = db.Put(i, i)
	}
	if putErr == nil {
		t.Fatal("pool exhaustion never surfaced")
	}
}

func TestPoolExhaustionSentinelAndAbort(t *testing.T) {
	h := pmem.New(1 << 22)
	opts := atlas.DefaultOptions()
	opts.LogEntries = 1 << 15
	rt := atlas.NewRuntime(h, opts)
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenSized(th, 24) // tiny pool: exhausts quickly
	if err != nil {
		t.Fatal(err)
	}
	// Fill until Put surfaces the sentinel.
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	var putErr error
	n := uint64(0)
	for ; n < 10000; n++ {
		if putErr = db.Put(n, n); putErr != nil {
			break
		}
	}
	if putErr == nil {
		t.Fatal("tiny pool never exhausted")
	}
	if !errors.Is(putErr, ErrPoolExhausted) {
		t.Fatalf("Put error %v does not wrap ErrPoolExhausted", putErr)
	}
	remainBefore := db.PoolRemaining()
	if err := db.Abort(); err != nil {
		t.Fatalf("abort after exhaustion: %v", err)
	}
	if db.PoolRemaining() <= remainBefore {
		t.Fatalf("abort did not return txn pages: %d -> %d", remainBefore, db.PoolRemaining())
	}
	// The aborted transaction left no trace and the store still works.
	if got := db.Count(); got != 0 {
		t.Fatalf("%d keys visible after aborted txn", got)
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	put(t, db, 7, 70)
	if v, ok := db.Get(7); !ok || v != 70 {
		t.Fatalf("Get(7) = %d,%v after abort", v, ok)
	}
	// Delete surfaces the sentinel too once the pool is truly dry (COW of
	// the descent path needs a page).
	for db.PoolRemaining() > 0 {
		if _, err := db.pool.Alloc(); err != nil {
			break
		}
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete(7); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("Delete on dry pool: %v", err)
	}
	if err := db.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortRestoresCommittedState(t *testing.T) {
	_, db := newDB(t, core.SoftCacheOnline)
	for k := uint64(0); k < 64; k++ {
		put(t, db, k, k*10)
	}
	genBefore := db.Generation()
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 32; k++ {
		if err := db.Put(k, 9999); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Delete(40); err != nil {
		t.Fatal(err)
	}
	if err := db.Abort(); err != nil {
		t.Fatal(err)
	}
	if db.Generation() != genBefore {
		t.Fatalf("generation %d after abort, want %d", db.Generation(), genBefore)
	}
	for k := uint64(0); k < 64; k++ {
		if v, ok := db.Get(k); !ok || v != k*10 {
			t.Fatalf("Get(%d) = %d,%v after abort", k, v, ok)
		}
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateAttachMultipleStoresOneHeap(t *testing.T) {
	h := pmem.New(1 << 24)
	opts := atlas.DefaultOptions()
	opts.LogEntries = 1 << 14
	rt := atlas.NewRuntime(h, opts)
	metas := make([]uint64, 3)
	for i := range metas {
		th, err := rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		db, err := Create(th, 256)
		if err != nil {
			t.Fatal(err)
		}
		metas[i] = db.MetaAddr()
		if err := db.Begin(); err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 20; k++ {
			if err := db.Put(k, uint64(i)*1000+k); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if h.Root() != 0 {
		t.Fatal("Create must not install a heap root")
	}
	rt.Close()
	// "Restart": recover and attach each store by its meta address.
	if _, err := atlas.Recover(h); err != nil {
		t.Fatal(err)
	}
	rt2 := atlas.NewRuntime(h, opts)
	for i, meta := range metas {
		th, err := rt2.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		db, err := Attach(th, meta)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 20; k++ {
			if v, ok := db.Get(k); !ok || v != uint64(i)*1000+k {
				t.Fatalf("store %d Get(%d) = %d,%v", i, k, v, ok)
			}
		}
		if err := db.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFreeHookDefersRecycling(t *testing.T) {
	_, db := newDB(t, core.Lazy)
	var hookGen uint64
	var held []uint64
	db.SetFreeHook(func(gen uint64, pages []uint64) {
		hookGen = gen
		held = append(held, pages...)
	})
	put(t, db, 1, 10)
	snapRoot := db.Snapshot()
	remain := db.PoolRemaining()
	put(t, db, 1, 20) // supersedes the old leaf
	if len(held) == 0 {
		t.Fatal("free hook never called")
	}
	if hookGen != db.Generation() {
		t.Fatalf("hook gen %d, want %d", hookGen, db.Generation())
	}
	// Pages were not recycled: the snapshot still reads the old version.
	if v, ok := db.GetSnapshot(snapRoot, 1); !ok || v != 10 {
		t.Fatalf("snapshot read %d,%v, want 10", v, ok)
	}
	if db.PoolRemaining() >= remain {
		t.Fatalf("pool grew without recycling: %d -> %d", remain, db.PoolRemaining())
	}
	// Returning the pages makes them allocatable again.
	db.RecyclePages(held)
	if db.PoolRemaining() <= remain-2 {
		t.Fatalf("RecyclePages had no effect: %d", db.PoolRemaining())
	}
}

// TestTxnAllocs is the transaction path's zero-allocation gate: once the
// tree and the page pool are warm, Begin+Put+Commit allocates nothing — the
// copy maps are cleared, not remade, and the free hook is handed the
// transaction's own freed-page scratch.
func TestTxnAllocs(t *testing.T) {
	_, db := newDB(t, core.SoftCacheOffline)
	var held []uint64
	db.SetFreeHook(func(gen uint64, pages []uint64) { held = append(held[:0], pages...) })
	k := uint64(0)
	txn := func() {
		if err := db.Begin(); err != nil {
			panic(err)
		}
		if err := db.Put(k%512, k); err != nil {
			panic(err)
		}
		if err := db.Commit(); err != nil {
			panic(err)
		}
		db.RecyclePages(held)
		k++
	}
	for i := 0; i < 2048; i++ {
		txn()
	}
	if n := testing.AllocsPerRun(500, txn); n != 0 {
		t.Fatalf("Begin+Put+Commit allocs = %v, want 0", n)
	}
}
