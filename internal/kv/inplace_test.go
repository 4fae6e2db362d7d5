package kv

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/pmem"
)

// TestGetNeverReturnsUndurableOverwrite parks an in-place FASE after its
// store, before its drain — the value is in the heap's volatile view but
// not in NVRAM — and reads the key meanwhile with Get, GetBatch and Scan.
// None may return the new value: a crash can still lose it. They wait out
// the window, and when the crash comes instead of the drain they return
// ErrCrashed rather than hold the store's read lock forever. After Recover
// the old value is there. Run with -race: the readers load the word while
// the committer stores it.
func TestGetNeverReturnsUndurableOverwrite(t *testing.T) {
	const k = 7
	var armed atomic.Bool
	parked, crash := make(chan struct{}), make(chan struct{})
	opts := DefaultOptions()
	opts.Shards = 1
	opts.CrashBeforeCommit = func(_, _, _ int) bool {
		if !armed.Load() {
			return false
		}
		close(parked)
		<-crash
		return true
	}
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, 10); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	var tk Ticket
	s.Submit(&tk, OpPut, k, 20)
	overwrite := waitOn(&tk) // its waiter commits it and parks in the hook
	<-parked
	if s.shards[0].window.Load()&1 == 0 {
		t.Fatal("the overwrite of a present key is not committing in place")
	}

	type read struct {
		how   string
		v     uint64
		found bool
		err   error
	}
	reads := make(chan read, 3)
	go func() {
		v, ok, err := s.Get(k)
		reads <- read{"Get", v, ok, err}
	}()
	go func() {
		vals, found := make([]uint64, 1), make([]bool, 1)
		err := s.GetBatch([]uint64{k}, vals, found)
		reads <- read{"GetBatch", vals[0], found[0], err}
	}()
	go func() {
		r := read{how: "Scan"}
		var ps []Pair
		if ps, r.err = s.Scan(k, 1); len(ps) > 0 {
			r.v, r.found = ps[0].V, ps[0].K == k
		}
		reads <- r
	}()
	select {
	case r := <-reads:
		t.Fatalf("%s returned %d, %v, %v while the overwrite was undrained", r.how, r.v, r.found, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(crash)
	for range 3 {
		r := <-reads
		if r.found && r.v == 20 {
			t.Fatalf("%s returned the undrained overwrite", r.how)
		}
		if !errors.Is(r.err, ErrCrashed) {
			t.Fatalf("%s: %d, %v, %v; want ErrCrashed", r.how, r.v, r.found, r.err)
		}
	}
	if res := <-overwrite; !errors.Is(res.Err, ErrCrashed) {
		t.Fatalf("crashed overwrite: %+v, want ErrCrashed", res)
	}
	<-s.Crashed()

	opts.CrashBeforeCommit = nil
	s2, _, err := Recover(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok, err := s2.Get(k); err != nil || !ok || v != 10 {
		t.Fatalf("after recovery Get(%d) = %d, %v, %v; want the old 10", k, v, ok, err)
	}
}

// TestWaitingGetCountsItsCut: a Get whose load meets an in-place window
// counts a cut before it waits, so no committer opens a further window
// until the Get is through and the Get waits out only the window already
// open, however busy the shard. It then returns the drained value and
// uncounts its cut, and the next overwrite commits in place again.
func TestWaitingGetCountsItsCut(t *testing.T) {
	const k = 7
	var armed atomic.Bool
	parked, drain := make(chan struct{}), make(chan struct{})
	opts := DefaultOptions()
	opts.Shards = 1
	opts.CrashBeforeCommit = func(_, _, _ int) bool {
		if armed.CompareAndSwap(true, false) {
			close(parked)
			<-drain
		}
		return false
	}
	s := newStore(t, opts)
	defer s.Close()
	release := sync.OnceFunc(func() { close(drain) })
	defer release() // before Close: a failed check must not leave the committer parked
	if err := s.Put(k, 10); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	armed.Store(true)
	var tk Ticket
	s.Submit(&tk, OpPut, k, 20)
	overwrite := waitOn(&tk) // its waiter commits it and parks in the hook
	<-parked
	if sh.window.Load()&1 == 0 {
		t.Fatal("the overwrite of a present key is not committing in place")
	}
	type read struct {
		v   uint64
		err error
	}
	got := make(chan read, 1)
	go func() {
		v, _, err := s.Get(k)
		got <- read{v, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); sh.cuts.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a Get waiting out an in-place window counts no cut: a committer can open the next window under it")
		}
	}
	release()
	if res := <-overwrite; res.Err != nil {
		t.Fatal(res.Err)
	}
	if r := <-got; r.err != nil || r.v != 20 {
		t.Fatalf("Get after the drain = %d, %v; want 20", r.v, r.err)
	}
	if n := sh.cuts.Load(); n != 0 {
		t.Fatalf("%d cuts still counted after the Get returned", n)
	}
	gen := sh.db.Generation()
	if err := s.Put(k, 30); err != nil {
		t.Fatal(err)
	}
	if sh.db.Generation() != gen {
		t.Fatal("the overwrite after the Get copied on write")
	}
}

// TestLoneOverwriteCounts pins the in-place floor: a lone PUT to a present
// key is 1 store and 1 written-back line, crosses no undo-log boundary at
// all, and leaves the tree's generation and page pool as they were.
func TestLoneOverwriteCounts(t *testing.T) {
	var undo atomic.Int64
	opts := DefaultOptions()
	opts.Shards = 1
	opts.UndoHook = func(atlas.UndoOp) { undo.Add(1) }
	s := newStore(t, opts)
	defer s.Close()
	for k := uint64(0); k < 64; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	sh := s.shards[0]
	stores, flushes, undo0 := sh.th.Stores(), sh.th.FlushStats().Total(), undo.Load()
	gen, pool := sh.db.Generation(), sh.db.PoolRemaining()
	if err := s.Put(5, 500); err != nil {
		t.Fatal(err)
	}
	if got := sh.th.Stores() - stores; got != 1 {
		t.Errorf("lone overwrite issued %d stores, want 1", got)
	}
	if got := sh.th.FlushStats().Total() - flushes; got != 1 {
		t.Errorf("lone overwrite wrote back %d lines, want 1", got)
	}
	if got := undo.Load() - undo0; got != 0 {
		t.Errorf("lone overwrite crossed %d undo-log boundaries, want 0", got)
	}
	if sh.db.Generation() != gen || sh.db.PoolRemaining() != pool {
		t.Errorf("generation %d → %d, pool %d → %d; a lone overwrite moves neither",
			gen, sh.db.Generation(), pool, sh.db.PoolRemaining())
	}
	if v, ok, err := s.Get(5); err != nil || !ok || v != 500 {
		t.Fatalf("Get(5) = %d, %v, %v", v, ok, err)
	}
}

// TestOverwriteBatchAnswersInQueueOrder queues PUT, INCR, DECR and GET of
// one present key behind a parked commit, so they commit as one in-place
// batch: each counter op returns the value its predecessors left, the GET
// sees all three, and the tree's generation does not move.
func TestOverwriteBatchAnswersInQueueOrder(t *testing.T) {
	const k = 3
	var park atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	var sizes []int
	opts := DefaultOptions()
	opts.Shards = 1
	opts.AckHook = func(int) {
		if park.Load() {
			entered <- struct{}{}
			<-release
		}
	}
	opts.CrashBeforeCommit = func(_, _, size int) bool {
		sizes = append(sizes, size)
		return false
	}
	s := newStore(t, opts)
	defer s.Close()
	if err := s.Put(k, 10); err != nil {
		t.Fatal(err)
	}
	park.Store(true)
	var blocker Ticket
	s.Submit(&blocker, OpPut, k+1, 1)
	blocked := waitOn(&blocker) // its waiter commits it and parks in the hook
	<-entered
	park.Store(false)
	gen := s.shards[0].db.Generation()
	var tickets [4]Ticket
	s.Submit(&tickets[0], OpPut, k, 20)
	s.Submit(&tickets[1], OpIncr, k, 5)
	s.Submit(&tickets[2], OpDecr, k, 2)
	s.Submit(&tickets[3], OpGet, k, 0)
	release <- struct{}{}
	if res := <-blocked; res.Err != nil {
		t.Fatal(res.Err)
	}
	want := []Result{{}, {Val: 25}, {Val: 23}, {Val: 23, Found: true}}
	for i := range tickets {
		if res := tickets[i].Wait(); res != want[i] {
			t.Fatalf("request %d: %+v, want %+v", i, res, want[i])
		}
	}
	if got := sizes[len(sizes)-1]; got != len(tickets) {
		t.Fatalf("the last batch held %d requests, want all %d", got, len(tickets))
	}
	if g := s.shards[0].db.Generation(); g != gen {
		t.Fatalf("generation %d → %d: the batch did not commit in place", gen, g)
	}
	if v, ok, err := s.Get(k); err != nil || !ok || v != 23 {
		t.Fatalf("Get(%d) = %d, %v, %v; want 23", k, v, ok, err)
	}
}
