package kv

import (
	"errors"
	"sync"
	"testing"
	"time"

	"nvmcache/internal/pmem"
)

// TestCrashMidFASEZeroAckedLoss injects a power failure in the middle of a
// shard's commit FASE while concurrent clients are writing, recovers, and
// checks the service contract both ways: every acked write survives, and
// every ErrCrashed write is fully rolled back (never half-applied).
func TestCrashMidFASEZeroAckedLoss(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 4
	opts.MaxBatch = 16
	opts.CrashBeforeCommit = func(shard, batch, size int) bool {
		return shard == 0 && batch >= 2
	}
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	type ack struct {
		k, v uint64
	}
	ackedCh := make(chan ack, 1<<16)
	crashedCh := make(chan uint64, 1<<16)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			for i := uint64(0); i < 4000; i++ {
				k := c<<32 | i
				if err := s.Put(k, k+1); err != nil {
					if errors.Is(err, ErrCrashed) {
						crashedCh <- k
					}
					return
				}
				ackedCh <- ack{k, k + 1}
			}
		}(uint64(c))
	}
	wg.Wait()
	close(ackedCh)
	close(crashedCh)
	select {
	case <-s.Crashed():
	case <-time.After(10 * time.Second):
		t.Fatal("crash never took effect (hook not reached?)")
	}
	if s.Heap().Crashes() != 1 {
		t.Fatalf("heap crashed %d times", s.Heap().Crashes())
	}

	s2, rep, err := Recover(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep.FASEsRolledBack == 0 {
		t.Fatal("the injected mid-FASE batch left no active undo log")
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatalf("recovered tree corrupt: %v", err)
	}
	nacked, ncrashed := 0, 0
	for a := range ackedCh {
		nacked++
		if v, ok, err := s2.Get(a.k); err != nil || !ok || v != a.v {
			t.Fatalf("acked write %d lost after crash: %d,%v,%v", a.k, v, ok, err)
		}
	}
	for k := range crashedCh {
		ncrashed++
		if _, ok, _ := s2.Get(k); ok {
			t.Fatalf("ErrCrashed write %d is durable (half-committed batch?)", k)
		}
	}
	if nacked == 0 {
		t.Fatal("no writes acked before the crash")
	}
	t.Logf("acked=%d crashed=%d rolledBack=%d wordsRestored=%d",
		nacked, ncrashed, rep.FASEsRolledBack, rep.WordsRestored)

	// The recovered store keeps serving.
	if err := s2.Put(1<<60, 42); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s2.Get(1 << 60); !ok || v != 42 {
		t.Fatalf("post-recovery put lost: %d,%v", v, ok)
	}
}

// TestExternalCrash crashes from outside the writers (the coordinator
// path cmd/nvserver's self-test uses) under concurrent load.
func TestExternalCrash(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 2
	opts.MaxBatch = 8
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	acked := map[uint64]uint64{}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				k := c<<32 | i
				if err := s.Put(k, k^0xabc); err != nil {
					return
				}
				mu.Lock()
				acked[k] = k ^ 0xabc
				mu.Unlock()
			}
		}(uint64(c))
	}
	time.Sleep(50 * time.Millisecond)
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := s.Crash(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("second crash: %v", err)
	}
	if _, _, err := s.Get(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Get on crashed store: %v", err)
	}
	if err := s.Put(1, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Put on crashed store: %v", err)
	}

	s2, _, err := Recover(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, v := range acked {
		if got, ok, err := s2.Get(k); err != nil || !ok || got != v {
			t.Fatalf("acked write %d lost: %d,%v,%v", k, got, ok, err)
		}
	}
	if len(acked) == 0 {
		t.Fatal("nothing acked before crash")
	}
}
