package kv

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/pmem"
)

// TestFullQueueSubmitCommits: with a queue two deep and nobody waiting, a
// Submit that finds the queue full commits a batch of it itself instead of
// blocking, so 64 Submits of one key from one goroutine finish with at
// most the last two still queued, every ack is OK, and the last value wins.
func TestFullQueueSubmitCommits(t *testing.T) {
	const k, n = 7, 64
	opts := DefaultOptions()
	opts.Shards = 1
	opts.QueueDepth = 2
	s := newStore(t, opts)
	defer s.Close()
	var tickets [n]Ticket
	submitted := make(chan struct{})
	go func() {
		for i := range tickets {
			s.Submit(&tickets[i], OpPut, k, uint64(i+1))
		}
		close(submitted)
	}()
	select {
	case <-submitted:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit to a full queue blocked with no one committing")
	}
	if puts := Totals(s.Stats()).Puts; puts < n-uint64(opts.QueueDepth) {
		t.Fatalf("%d of %d puts committed before any Wait; a full queue must be committed by Submit", puts, n)
	}
	for i := range tickets {
		if res := tickets[i].Wait(); res.Err != nil {
			t.Fatalf("put %d: %v", i, res.Err)
		}
	}
	if v, ok, err := s.Get(k); err != nil || !ok || v != n {
		t.Fatalf("Get(%d) = %d, %v, %v; want the last value %d", k, v, ok, err, n)
	}
}

// TestCombiningReadYourWrites: 8 goroutines Put and Get their own keys on
// one shard, so each one's Wait often finds its request committed by
// another's. Every Get sees its goroutine's last Put, and commits combine:
// fewer batches than puts. The first commit, if it holds one Put, is held
// at its pre-commit site until the other seven have queued theirs behind
// it, so at least that much combining happens on any scheduler, one CPU
// included. Run with -race: the committers hand the shard's thread, tree
// and buffers to each other through the commit lock alone.
func TestCombiningReadYourWrites(t *testing.T) {
	const goroutines, ops = 8, 2000
	var s *Store
	var first atomic.Bool
	opts := DefaultOptions()
	opts.Shards = 1
	opts.Events = func(site atlas.Site, _ int, n uint64) {
		if site != atlas.SitePreCommit || n != 1 || !first.CompareAndSwap(false, true) {
			return
		}
		q := &s.shards[0].q
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
			q.mu.Lock()
			queued := q.n
			q.mu.Unlock()
			if queued == goroutines-1 {
				return
			}
		}
	}
	s = newStore(t, opts)
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := uint64(0); g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < ops; i++ {
				k := g<<32 | i%64
				if err := s.Put(k, i); err != nil {
					errs <- err
					return
				}
				if v, ok, err := s.Get(k); err != nil || !ok || v != i {
					errs <- errors.New("a Get missed its own goroutine's acked Put")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := Totals(s.Stats())
	if st.Puts != goroutines*ops || st.Batches >= st.Puts {
		t.Fatalf("%d puts in %d batches: want %d puts sharing commits", st.Puts, st.Batches, goroutines*ops)
	}
	t.Logf("%d puts in %d batches", st.Puts, st.Batches)
}

// TestOpenStartsNoGoroutines: a shard is a queue and a commit lock, not a
// goroutine. Opening a 16-shard store and writing to every shard leaves the
// goroutine count where it was.
func TestOpenStartsNoGoroutines(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 16
	before := runtime.NumGoroutine()
	s := newStore(t, opts)
	defer s.Close()
	for k := uint64(0); k < 256; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if d := runtime.NumGoroutine() - before; d >= opts.Shards {
		t.Fatalf("a %d-shard store runs %d goroutines", opts.Shards, d)
	}
}

// TestCrashWhileWaiting injects a power failure into the commit of one
// waiter while a second goroutine waits on the same shard, its request
// queued behind the crashing batch. Both are nacked, the crash takes
// effect, and recovery finds the tree whole without either write.
func TestCrashWhileWaiting(t *testing.T) {
	const old, k1, k2 = 1, 2, 3
	armed := false
	parked, crash := make(chan struct{}), make(chan struct{})
	opts := DefaultOptions()
	opts.Shards = 1
	opts.Events = func(site atlas.Site, _ int, _ uint64) {
		if site == atlas.SitePreCommit && armed {
			close(parked)
			<-crash
			panic(atlas.Crash{Site: site})
		}
	}
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(old, 10); err != nil {
		t.Fatal(err)
	}
	armed = true // read by the next commit, on the goroutine waitOn starts
	var first, second Ticket
	s.Submit(&first, OpPut, k1, 1)
	crashed := waitOn(&first) // commits k1 and parks in the hook
	<-parked
	s.Submit(&second, OpPut, k2, 2)
	queued := waitOn(&second) // blocks on the commit lock the first holds
	// Give the second waiter time to reach the lock. Either way both must
	// be nacked; the pause only makes the interleaving this test is about
	// the likely one.
	time.Sleep(10 * time.Millisecond)
	close(crash)
	for _, res := range []<-chan Result{crashed, queued} {
		if r := <-res; !errors.Is(r.Err, ErrCrashed) {
			t.Fatalf("a waiter on the crashing shard got %+v, want ErrCrashed", r)
		}
	}
	select {
	case <-s.Crashed():
	case <-time.After(10 * time.Second):
		t.Fatal("the crash never took effect")
	}

	opts.Events = nil
	s2, rep, err := Recover(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep.FASEsRolledBack != 1 {
		t.Fatalf("rolled back %d FASEs, want the crashed one", rep.FASEsRolledBack)
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s2.CheckPages(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := s2.Get(old); err != nil || !ok || v != 10 {
		t.Fatalf("acked Get(%d) = %d, %v, %v after recovery", old, v, ok, err)
	}
	for _, k := range []uint64{k1, k2} {
		if _, ok, err := s2.Get(k); err != nil || ok {
			t.Fatalf("nacked key %d present after recovery (err %v)", k, err)
		}
	}
	if err := s2.Put(k2, 2); err != nil {
		t.Fatal(err)
	}
}
