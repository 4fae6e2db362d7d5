package kv

import (
	"errors"
	"sync"
	"testing"

	"nvmcache/internal/mdb"
	"nvmcache/internal/pmem"
)

func newStore(t *testing.T, opts Options) *Store {
	t.Helper()
	opts = opts.withDefaults()
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitOn waits for t on a new goroutine and delivers the result. A test
// whose hook parks a commit needs it: the goroutine that waits is the one
// that commits, so it is the one the hook parks.
func waitOn(t *Ticket) <-chan Result {
	res := make(chan Result, 1)
	go func() { res <- t.Wait() }()
	return res
}

func TestPutGetDeleteAcrossShards(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 4
	s := newStore(t, opts)
	const n = 500
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			errs[k] = s.Put(k, k*3)
		}(uint64(i))
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := s.Get(k)
		if err != nil || !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d,%v,%v", k, v, ok, err)
		}
	}
	found, err := s.Delete(7)
	if err != nil || !found {
		t.Fatalf("Delete(7) = %v,%v", found, err)
	}
	if _, ok, _ := s.Get(7); ok {
		t.Fatal("key 7 survives delete")
	}
	if found, _ := s.Delete(7); found {
		t.Fatal("second delete found the key")
	}
	st := Totals(s.Stats())
	if st.Puts != n || st.Deletes != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Batches == 0 || st.BatchedOps != n+2 {
		t.Fatalf("batch stats: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reads still work on the closed (durably drained) store.
	if v, ok, err := s.Get(3); err != nil || !ok || v != 9 {
		t.Fatalf("Get after close = %d,%v,%v", v, ok, err)
	}
	// A clean shutdown recovers with nothing to roll back.
	s2, rep, err := Recover(s.Heap(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FASEsRolledBack != 0 {
		t.Fatalf("clean shutdown rolled back: %+v", rep)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get(3); !ok || v != 9 {
		t.Fatalf("recovered Get(3) = %d,%v", v, ok)
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitMaxBatchBound: however deep the queue behind a commit
// gets, no FASE absorbs more than MaxBatch operations, and queued requests
// do share commits (batches form behind the one in progress, not on a
// timer).
func TestGroupCommitMaxBatchBound(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 1
	opts.MaxBatch = 8
	var mu sync.Mutex
	var sizes []int
	opts.CrashBeforeCommit = func(shard, batch, size int) bool {
		mu.Lock()
		sizes = append(sizes, size)
		mu.Unlock()
		return false
	}
	s := newStore(t, opts)
	defer s.Close()
	const n = 200
	tickets := make([]Ticket, n)
	for i := range tickets {
		s.Submit(&tickets[i], OpPut, uint64(i), uint64(i))
	}
	for i := range tickets {
		if res := tickets[i].Wait(); res.Err != nil {
			t.Fatalf("put %d: %v", i, res.Err)
		}
	}
	st := s.Stats()[0]
	if st.BatchedOps != n {
		t.Fatalf("committed %d ops, want %d", st.BatchedOps, n)
	}
	if st.Batches < uint64(n/opts.MaxBatch) {
		t.Fatalf("%d batches for %d ops: some batch exceeded MaxBatch=%d", st.Batches, n, opts.MaxBatch)
	}
	if st.Batches >= n {
		t.Fatalf("%d batches for %d queued ops: nothing shared a commit", st.Batches, n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, size := range sizes {
		if size > opts.MaxBatch {
			t.Fatalf("batch %d absorbed %d requests, bound is %d", i, size, opts.MaxBatch)
		}
	}
}

// TestLonePutPaysNoDelay: a request that finds its shard idle commits at
// once, alone — no batch-fill wait stands between it and its FASE.
func TestLonePutPaysNoDelay(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 1
	s := newStore(t, opts)
	defer s.Close()
	for k := uint64(0); k < 8; k++ {
		if err := s.Put(k, k+10); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()[0]
	if st.Batches != 8 || st.BatchedOps != 8 {
		t.Fatalf("8 sequential puts committed as %d batches / %d ops, want 8/8", st.Batches, st.BatchedOps)
	}
	if v, ok, _ := s.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
}

func TestShardRoutingDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7, 16} {
		hit := make([]int, shards)
		for k := uint64(0); k < 4096; k++ {
			i := ShardIndex(k, shards)
			if i < 0 || i >= shards {
				t.Fatalf("ShardIndex(%d,%d) = %d out of range", k, shards, i)
			}
			if j := ShardIndex(k, shards); j != i {
				t.Fatalf("ShardIndex(%d,%d) unstable: %d then %d", k, shards, i, j)
			}
			hit[i]++
		}
		for i, n := range hit {
			if n == 0 {
				t.Fatalf("%d shards: shard %d never hit", shards, i)
			}
		}
	}
	// The store routes with the same function it exports.
	opts := DefaultOptions()
	opts.Shards = 4
	s := newStore(t, opts)
	defer s.Close()
	perShard := make([]uint64, 4)
	for k := uint64(0); k < 100; k++ {
		if s.ShardFor(k) != ShardIndex(k, 4) {
			t.Fatalf("ShardFor(%d) disagrees with ShardIndex", k)
		}
		perShard[s.ShardFor(k)]++
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range s.Stats() {
		if st.Puts != perShard[i] {
			t.Fatalf("shard %d served %d puts, want %d", i, st.Puts, perShard[i])
		}
	}
}

// TestGracefulShutdownDrainsPending: everything submitted before Close is
// committed and acked by it, however much of it was still queued.
func TestGracefulShutdownDrainsPending(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 2
	opts.MaxBatch = 4
	s := newStore(t, opts)
	const n = 200
	tickets := make([]Ticket, n)
	for i := range tickets {
		s.Submit(&tickets[i], OpPut, uint64(i), uint64(i)+100)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range tickets {
		if res := tickets[i].Wait(); res.Err != nil {
			t.Fatalf("pending put %d not drained: %v", i, res.Err)
		}
	}
	for k := uint64(0); k < n; k++ {
		if v, ok, err := s.Get(k); err != nil || !ok || v != k+100 {
			t.Fatalf("Get(%d) after drain = %d,%v,%v", k, v, ok, err)
		}
	}
	if st := Totals(s.Stats()); st.BatchedOps != n {
		t.Fatalf("drained ops: %+v", st)
	}
	// New requests are refused after close.
	if err := s.Put(999, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
}

func TestPoolExhaustionShedsBatchAndKeepsServing(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 1
	opts.PoolPages = 64 // tiny: exhausts mid-run
	s := newStore(t, opts)
	defer s.Close()
	var exhausted error
	var acked []uint64
	for k := uint64(0); k < 10000; k++ {
		if err := s.Put(k, k); err != nil {
			exhausted = err
			break
		}
		acked = append(acked, k)
	}
	if exhausted == nil {
		t.Fatal("tiny pool never exhausted")
	}
	if !errors.Is(exhausted, mdb.ErrPoolExhausted) {
		t.Fatalf("error %v does not wrap mdb.ErrPoolExhausted", exhausted)
	}
	// The failed batch was aborted, not half-applied: everything acked is
	// still there and the store still serves reads.
	if st := Totals(s.Stats()); st.Aborts == 0 {
		t.Fatalf("no abort recorded: %+v", st)
	}
	for _, k := range acked {
		if v, ok, err := s.Get(k); err != nil || !ok || v != k {
			t.Fatalf("acked Get(%d) = %d,%v,%v after shed batch", k, v, ok, err)
		}
	}
}
