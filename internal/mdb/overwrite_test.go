package mdb

import (
	"testing"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
)

// TestOverwriteCounts is the exact-count gate on the in-place path, on the
// benchmark's serving shape (the one TestPutCountsServing prices at 103
// stores and 13 write-backs): overwriting a present key in its own FASE is
// one store and one write-back — its leaf's value line — with no undo
// record, no generation bump and no page taken from the pool.
func TestOverwriteCounts(t *testing.T) {
	const txns = 256
	_, db, keys, undo := shapeDB(t, Create)
	th := db.t
	stores, flushes, undo0 := th.Stores(), th.FlushStats().Total(), *undo
	gen, pool := db.Generation(), db.PoolRemaining()
	for i := 0; i < txns; i++ {
		k := keys[(i*131)%len(keys)]
		slot := db.Slot(k)
		if slot == 0 {
			t.Fatalf("Slot(%d) = 0 for a key the tree holds", k)
		}
		th.FASEBegin()
		db.Overwrite(slot, uint64(i))
		th.FASEEnd()
		if v, ok := db.Get(k); !ok || v != uint64(i) {
			t.Fatalf("overwrite %d not applied: %d, %v", i, v, ok)
		}
		if d := th.Heap().PersistedUint64(slot); d != uint64(i) {
			t.Fatalf("overwrite %d not durable after FASEEnd: %d", i, d)
		}
	}
	if got := th.Stores() - stores; got != txns {
		t.Errorf("stores per overwrite = %v, want 1", float64(got)/txns)
	}
	if got := th.FlushStats().Total() - flushes; got != txns {
		t.Errorf("write-backs per overwrite = %v, want 1", float64(got)/txns)
	}
	if got := *undo - undo0; got != 0 {
		t.Errorf("%d undo records for %d overwrites, want 0", got, txns)
	}
	if db.Generation() != gen || db.PoolRemaining() != pool {
		t.Errorf("generation %d → %d, pool %d → %d; an overwrite moves neither",
			gen, db.Generation(), pool, db.PoolRemaining())
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckPages(); err != nil {
		t.Fatal(err)
	}
}

// TestOverwriteCrash: Slot finds exactly the keys present, an overwrite a
// crash cuts before its drain leaves the old value, one whose FASE ended
// survives the crash, and Overwrite refuses to run inside a transaction.
func TestOverwriteCrash(t *testing.T) {
	rt, db := newDB(t, core.SoftCacheOnline)
	h := rt.Heap()
	put(t, db, 1, 10)
	put(t, db, 2, 20)
	if db.Slot(3) != 0 {
		t.Fatal("Slot of an absent key is not 0")
	}
	th := db.t
	th.FASEBegin()
	db.Overwrite(db.Slot(1), 11)
	th.FASEEnd()
	th.FASEBegin()
	db.Overwrite(db.Slot(2), 21)
	h.Crash() // mid-FASE: the second overwrite never drained
	rep, err := atlas.Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FASEsRolledBack != 0 {
		t.Fatalf("an overwrite-only FASE left an active undo log: %+v", rep)
	}
	th2, err := atlas.NewRuntime(h, atlas.DefaultOptions()).NewThread()
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Reopen(th2)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := db2.Get(1); v != 11 {
		t.Fatalf("key 1 = %d after crash, want the drained overwrite 11", v)
	}
	if v, _ := db2.Get(2); v != 20 {
		t.Fatalf("key 2 = %d after crash, want the old 20 (the overwrite never drained)", v)
	}
	if err := db2.Begin(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Overwrite inside a write transaction did not panic")
		}
	}()
	db2.Overwrite(db2.Slot(1), 12)
}
