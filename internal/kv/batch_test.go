package kv

import (
	"testing"
)

func TestPutBatchGetBatch(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 4
	s := newStore(t, opts)
	defer s.Close()

	const n = 300
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{K: uint64(i), V: uint64(i) * 7}
	}
	if err := s.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	found := make([]bool, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := s.GetBatch(keys, vals, found); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || vals[i] != uint64(i)*7 {
			t.Fatalf("GetBatch[%d] = %d,%v, want %d,true", i, vals[i], found[i], uint64(i)*7)
		}
	}
	// Misses report found=false in input order.
	keys[0], keys[1] = 1<<40, 2
	if err := s.GetBatch(keys[:2], vals[:2], found[:2]); err != nil {
		t.Fatal(err)
	}
	if found[0] || !found[1] || vals[1] != 14 {
		t.Fatalf("miss/hit = (%v, %d/%v)", found[0], vals[1], found[1])
	}
	// Logical-op accounting: every pair counts as one put, batched through
	// at most one request per shard.
	st := Totals(s.Stats())
	if st.Puts != n {
		t.Fatalf("puts = %d, want %d", st.Puts, n)
	}
	if st.BatchedOps != n {
		t.Fatalf("batched ops = %d, want %d", st.BatchedOps, n)
	}
	if st.Batches > uint64(opts.Shards) {
		t.Fatalf("batches = %d for one PutBatch over %d shards", st.Batches, opts.Shards)
	}
}

func TestPutBatchDuplicateKeyLastWins(t *testing.T) {
	s := newStore(t, DefaultOptions())
	defer s.Close()
	if err := s.PutBatch([]Pair{{K: 5, V: 1}, {K: 5, V: 2}, {K: 5, V: 3}}); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.Get(5); !ok || v != 3 {
		t.Fatalf("Get(5) = %d,%v, want 3,true", v, ok)
	}
}

func TestPutBatchEmptyAndSingle(t *testing.T) {
	s := newStore(t, DefaultOptions())
	defer s.Close()
	if err := s.PutBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]Pair{{K: 9, V: 90}}); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.Get(9); !ok || v != 90 {
		t.Fatalf("Get(9) = %d,%v", v, ok)
	}
	if err := s.GetBatch(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPutBatchDurableAcrossRecover: an acked PutBatch must survive a
// crash-stop (Close here; crash paths are swept by crash_test.go).
func TestPutBatchDurableAcrossRecover(t *testing.T) {
	opts := DefaultOptions()
	s := newStore(t, opts)
	pairs := make([]Pair, 64)
	for i := range pairs {
		pairs[i] = Pair{K: uint64(1000 + i), V: uint64(i)}
	}
	if err := s.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, err := Recover(s.Heap(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := range pairs {
		if v, ok, _ := s2.Get(pairs[i].K); !ok || v != pairs[i].V {
			t.Fatalf("recovered Get(%d) = %d,%v", pairs[i].K, v, ok)
		}
	}
}

// TestGetBatchAllocs pins GetBatch at zero allocations per call with
// reused argument slices — the server's MGET hot path rides it.
func TestGetBatchAllocs(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 8
	s := newStore(t, opts)
	defer s.Close()
	keys := make([]uint64, 32)
	vals := make([]uint64, 32)
	found := make([]bool, 32)
	for i := range keys {
		keys[i] = uint64(i)
		if err := s.Put(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.GetBatch(keys, vals, found); err != nil { // warm
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := s.GetBatch(keys, vals, found); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Fatalf("GetBatch allocs/op = %v, want 0", n)
	}
}
