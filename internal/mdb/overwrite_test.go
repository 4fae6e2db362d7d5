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
		slot := slotOf(db, k)
		if slot == 0 {
			t.Fatalf("Locate(%d) = 0 for a key the tree holds", k)
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

// slotOf is k's value slot in db's current tree, 0 when k is absent.
func slotOf(db *DB, k uint64) uint64 {
	slot, _, _ := db.Locate(db.Snapshot(), k)
	return slot
}

// TestOverwriteCrash: Locate finds exactly the keys present, an overwrite a
// crash cuts before its drain leaves the old value, one whose FASE ended
// survives the crash, and Overwrite refuses to run inside a transaction.
func TestOverwriteCrash(t *testing.T) {
	rt, db := newDB(t, core.SoftCacheOnline)
	h := rt.Heap()
	put(t, db, 1, 10)
	put(t, db, 2, 20)
	if slotOf(db, 3) != 0 {
		t.Fatal("the slot of an absent key is not 0")
	}
	th := db.t
	th.FASEBegin()
	db.Overwrite(slotOf(db, 1), 11)
	th.FASEEnd()
	th.FASEBegin()
	db.Overwrite(slotOf(db, 2), 21)
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
	db2.Overwrite(slotOf(db2, 1), 12)
}

// TestSlotAtVerifiesItsPage: SlotAt answers with the slot Locate found for
// every key of a multi-level tree, and with 0 for every coordinate that
// does not name that key in a leaf — another key, an entry past the
// page's count, a page index past the pool, and a branch whose separator
// is the key itself.
func TestSlotAtVerifiesItsPage(t *testing.T) {
	_, db := newDB(t, core.SoftCacheOnline)
	const n = 200
	for k := uint64(0); k < n; k++ {
		put(t, db, 2*k, k)
	}
	root := db.Snapshot()
	if db.ptype(root) != pageBranch {
		t.Fatal("the tree is one leaf; the test needs a branch")
	}
	for k := uint64(0); k < 2*n; k += 2 {
		slot, page, i := db.Locate(root, k)
		if slot == 0 {
			t.Fatalf("Locate(%d) found nothing", k)
		}
		if got := db.SlotAt(page, i, k); got != slot {
			t.Fatalf("SlotAt(%d, %d, %d) = %d, Locate found %d", page, i, k, got, slot)
		}
		if got := db.SlotAt(page, i, k+1); got != 0 {
			t.Fatalf("SlotAt names key %d's slot for key %d", k, k+1)
		}
		if got := db.SlotAt(page, db.nkeys(db.pages+uint64(page)*db.block), k); got != 0 {
			t.Fatalf("SlotAt answered for the entry past page %d's count", page)
		}
		if got := db.SlotAt(uint32(len(db.stamp)), i, k); got != 0 {
			t.Fatal("SlotAt answered for a page index past the pool")
		}
	}
	if got := db.SlotAt(db.PageIndex(root), 0, db.key(root, 0)); got != 0 {
		t.Fatal("SlotAt validated a branch entry whose separator is the key")
	}
}
