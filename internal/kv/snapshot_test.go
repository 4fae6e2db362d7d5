package kv

import (
	"testing"
)

// TestSnapshotIsolation pins a snapshot and checks it stays an unchanged
// view while the shard's writer commits puts and deletes over it — the
// satellite property: reader holds db.Snapshot(), concurrent writer
// commits, GetSnapshot still answers from the old tree.
func TestSnapshotIsolation(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 1
	s := newStore(t, opts)
	defer s.Close()

	for k := uint64(0); k < 100; k++ {
		if err := s.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	gen := snap.Gen()

	// Concurrent writer: overwrite, delete, and insert behind the reader's
	// back, each acked (committed and flushed) before we re-read.
	for k := uint64(0); k < 50; k++ {
		if err := s.Put(k, 7777); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(50); k < 75; k++ {
		if _, err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1000); k < 1050; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}

	// The pinned view is exactly the tree at generation gen: original
	// values, deleted keys still present, new keys absent.
	for k := uint64(0); k < 100; k++ {
		if v, ok := snap.Get(k); !ok || v != k+1 {
			t.Fatalf("snapshot Get(%d) = %d,%v, want %d", k, v, ok, k+1)
		}
	}
	for k := uint64(1000); k < 1050; k++ {
		if _, ok := snap.Get(k); ok {
			t.Fatalf("snapshot sees key %d from a later generation", k)
		}
	}
	// The live view moved on.
	if v, ok, _ := s.Get(0); !ok || v != 7777 {
		t.Fatalf("live Get(0) = %d,%v", v, ok)
	}
	if _, ok, _ := s.Get(60); ok {
		t.Fatal("live view still has deleted key 60")
	}
	// Raw mdb-level assertion, as the satellite asks: the snapshot root
	// still resolves through GetSnapshot while the committed root differs.
	sh := s.shards[0]
	if sh.db.Generation() == gen {
		t.Fatal("writer never committed past the snapshot")
	}
	if v, ok := sh.db.GetSnapshot(snap.Root(), 25); !ok || v != 26 {
		t.Fatalf("mdb GetSnapshot = %d,%v", v, ok)
	}
	snap.Release()
}

// TestSnapshotDeferredReclaim holds a snapshot across enough churn that,
// without deferred reclamation, its pages would be recycled and rewritten;
// then checks the pool recovers once the snapshot is released (pages are
// parked, not leaked).
func TestSnapshotDeferredReclaim(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 1
	s := newStore(t, opts)
	defer s.Close()

	for k := uint64(0); k < 64; k++ {
		if err := s.Put(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	// Churn: rewrite the same keys many times. Every commit supersedes
	// path pages the snapshot may reference, and while it stays pinned
	// they park instead of recycling.
	for round := uint64(0); round < 20; round++ {
		for k := uint64(0); k < 64; k++ {
			if err := s.Put(k, round<<32|k); err != nil {
				t.Fatal(err)
			}
		}
	}
	sh := s.shards[0]
	held := sh.db.PoolRemaining() // while pinned: superseded pages parked
	for k := uint64(0); k < 64; k++ {
		if v, ok := snap.Get(k); !ok || v != k*2 {
			t.Fatalf("snapshot Get(%d) = %d,%v after churn, want %d", k, v, ok, k*2)
		}
	}
	snap.Release()
	// More commits let the writer recycle the parked pages.
	for k := uint64(0); k < 64; k++ {
		if err := s.Put(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	if after := sh.db.PoolRemaining(); after <= held {
		t.Fatalf("release did not return parked pages: %d -> %d", held, after)
	}
}
