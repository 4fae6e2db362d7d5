package kv

import (
	"flag"
	"testing"
	"time"

	"nvmcache/internal/pmem"
)

var soakCycles = flag.Int("soak", 1000, "crash/recover cycles TestCrashRecoverSoak runs (100 at most under -short)")

// TestCrashRecoverSoak crashes and recovers one store over and over on a
// heap sized by RecommendedHeapBytes: 64 acked PUTs, a power failure, a
// recovery, repeated -soak times. A store must survive any number of
// restarts, so after every recovery three things hold: every acked write
// reads back, every shard's page allocator accounts for each page exactly
// once (PoolRemaining is the capacity minus the pages the tree reaches),
// and the undo-log registry has not grown since the first recovery —
// recovery frees the crashed incarnation's logs instead of allocating new
// ones.
func TestCrashRecoverSoak(t *testing.T) {
	const puts, keys = 64, 512
	cycles := *soakCycles
	if testing.Short() {
		cycles = min(cycles, 100)
	}
	opts := DefaultOptions()
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[uint64]uint64, keys)
	var logs uint64
	start := time.Now()
	for cycle := 0; cycle < cycles; cycle++ {
		for i := 0; i < puts; i++ {
			n := uint64(cycle*puts + i)
			k, v := n%keys, n+1
			if err := s.Put(k, v); err != nil {
				t.Fatalf("cycle %d: put %d: %v", cycle, i, err)
			}
			acked[k] = v
		}
		if err := s.Crash(); err != nil {
			t.Fatalf("cycle %d: crash: %v", cycle, err)
		}
		if s, _, err = Recover(h, opts); err != nil {
			t.Fatalf("cycle %d: recover: %v", cycle, err)
		}
		if err := s.CheckPages(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		for k, v := range acked {
			if got, ok, err := s.Get(k); err != nil || !ok || got != v {
				t.Fatalf("cycle %d: acked write %d=%d reads %d, %v, %v", cycle, k, v, got, ok, err)
			}
		}
		n := h.ReadUint64(h.Meta())
		if cycle == 0 {
			logs = n
		} else if n != logs {
			t.Fatalf("cycle %d: %d undo logs registered, %d after the first recovery", cycle, n, logs)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d crash/recover cycles in %v, %d undo logs registered", cycles, time.Since(start), logs)
}
