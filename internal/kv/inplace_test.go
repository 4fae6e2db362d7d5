package kv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/pmem"
)

// TestGetNeverReturnsUndurableOverwrite parks an in-place FASE after its
// store, before its drain — the value is in the heap's volatile view but
// not in NVRAM — and reads the key meanwhile. Get and GetBatch may not
// return the new value, which a crash can still lose: they answer at once
// with the durable pre-image, and a key the batch does not touch with its
// own value. Scan, which reads under the commit lock, waits out the
// window, and when the crash comes instead of the drain it returns
// ErrCrashed rather than wait forever.
// After Recover the old value is there. Run with -race: the readers load
// the word and the pre-image table while the committer stores them.
func TestGetNeverReturnsUndurableOverwrite(t *testing.T) {
	const k, other = 7, 8
	var armed atomic.Bool
	parked, crash := make(chan struct{}), make(chan struct{})
	opts := DefaultOptions()
	opts.Shards = 1
	opts.Events = func(site atlas.Site, _ int, _ uint64) {
		if site == atlas.SitePreCommit && armed.Load() {
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
	if err := s.PutBatch([]Pair{{k, 10}, {other, 30}}); err != nil {
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

	scanned := make(chan error, 1)
	go func() {
		ps, err := s.Scan(k, 1)
		if err == nil && len(ps) > 0 && ps[0] == (Pair{k, 20}) {
			err = errors.New("Scan returned the undrained overwrite")
		}
		scanned <- err
	}()
	keys, vals, found := []uint64{k, other, k}, make([]uint64, 3), make([]bool, 3)
	for i := 0; i < 100; i++ {
		if v, ok, err := s.Get(k); err != nil || !ok || v != 10 {
			t.Fatalf("Get(%d) = %d, %v, %v while the overwrite was undrained; want the pre-image 10", k, v, ok, err)
		}
		if v, ok, err := s.Get(other); err != nil || !ok || v != 30 {
			t.Fatalf("Get(%d) = %d, %v, %v while another key's overwrite was undrained; want 30", other, v, ok, err)
		}
		if err := s.GetBatch(keys, vals, found); err != nil {
			t.Fatal(err)
		}
		if vals[0] != 10 || vals[1] != 30 || vals[2] != 10 || !found[0] || !found[1] || !found[2] {
			t.Fatalf("GetBatch(%v) = %v, %v while the overwrite was undrained; want [10 30 10]", keys, vals, found)
		}
	}
	select {
	case err := <-scanned:
		t.Fatalf("Scan returned (%v) while the overwrite was undrained", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(crash)
	if err := <-scanned; !errors.Is(err, ErrCrashed) {
		t.Fatalf("Scan across the crash: %v; want ErrCrashed", err)
	}
	if res := <-overwrite; !errors.Is(res.Err, ErrCrashed) {
		t.Fatalf("crashed overwrite: %+v, want ErrCrashed", res)
	}
	<-s.Crashed()
	if _, _, err := s.Get(k); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Get after the crash: %v; want ErrCrashed", err)
	}

	opts.Events = nil
	s2, _, err := Recover(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok, err := s2.Get(k); err != nil || !ok || v != 10 {
		t.Fatalf("after recovery Get(%d) = %d, %v, %v; want the old 10", k, v, ok, err)
	}
}

// TestScanWaitsOutParkedInPlaceCommit: a Scan that meets an in-place
// commit parked between its store and its drain waits for the commit lock
// and returns nothing meanwhile. Once the drain is through it returns the
// drained value, and the next overwrite commits in place: a Scan leaves the
// shard's commits as it found them.
func TestScanWaitsOutParkedInPlaceCommit(t *testing.T) {
	const k = 7
	var armed atomic.Bool
	parked, drain := make(chan struct{}), make(chan struct{})
	opts := DefaultOptions()
	opts.Shards = 1
	opts.Events = func(site atlas.Site, _ int, _ uint64) {
		if site == atlas.SitePreCommit && armed.CompareAndSwap(true, false) {
			close(parked)
			<-drain
		}
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
	type scan struct {
		ps  []Pair
		err error
	}
	got := make(chan scan, 1)
	go func() {
		ps, err := s.Scan(k, 1)
		got <- scan{ps, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("Scan returned %v, %v while an in-place commit was undrained", r.ps, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if res := <-overwrite; res.Err != nil {
		t.Fatal(res.Err)
	}
	if r := <-got; r.err != nil || len(r.ps) != 1 || r.ps[0] != (Pair{k, 20}) {
		t.Fatalf("Scan after the drain = %v, %v; want [{%d 20}]", r.ps, r.err, k)
	}
	gen := sh.db.Generation()
	if err := s.Put(k, 30); err != nil {
		t.Fatal(err)
	}
	if sh.db.Generation() != gen {
		t.Fatal("the overwrite after the Scan copied on write")
	}
}

// TestReadsForceNoCopyOnWrite: six readers hammer one shard with Gets,
// GetBatches and Scans while two writers overwrite its present keys, with
// PUTs and INCRs, as fast as they commit. Every batch commits in place: a
// Get or GetBatch that meets an open window answers from its pre-images,
// and a Scan reads between commits under the commit lock, so no read holds
// the shard to copy-on-write.
func TestReadsForceNoCopyOnWrite(t *testing.T) {
	const keys, writes, readers = 64, 3000, 6
	opts := DefaultOptions()
	opts.Shards = 1
	s := newStore(t, opts)
	defer s.Close()
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, tagged(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	before := Totals(s.Stats())
	var stop atomic.Bool
	var rd, wr sync.WaitGroup
	errs := make(chan error, readers+2)
	for r := 0; r < readers; r++ {
		rd.Add(1)
		go func() {
			defer rd.Done()
			for i := uint64(0); !stop.Load(); i++ {
				var err error
				switch k := (i*7 + uint64(r)) % keys; r % 3 {
				case 0:
					err = getTagged(s, k)
				case 1:
					err = getBatchTagged(s, k, keys)
				case 2:
					err = scanTagged(s, k, keys)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for w := uint64(0); w < 2; w++ {
		wr.Add(1)
		go func() {
			defer wr.Done()
			for i := uint64(1); i <= writes; i++ {
				k := (i*13 + w) % keys
				var err error
				if w == 0 {
					err = s.Put(k, tagged(k, i))
				} else {
					_, err = s.Incr(k, 1)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wr.Wait()
	stop.Store(true)
	rd.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after := Totals(s.Stats())
	if n := after.Batches - before.Batches; n == 0 {
		t.Fatal("no batch committed: the test exercised nothing")
	}
	if n := after.CowBatches - before.CowBatches; n != 0 {
		t.Fatalf("%d of %d overwrite batches copied on write while readers read", n, after.Batches-before.Batches)
	}
	t.Logf("%d in-place batches under %d reads", after.Batches-before.Batches, after.Gets-before.Gets)
}

// getTagged Gets k, which must be present with a value a PUT wrote for it.
func getTagged(s *Store, k uint64) error {
	v, ok, err := s.Get(k)
	if err == nil && !ok {
		err = fmt.Errorf("Get(%d) found nothing", k)
	}
	if err == nil {
		err = checkTagged("Get", k, v)
	}
	return err
}

// getBatchTagged GetBatches eight of keys present keys from k on, spread
// over the key space; each must hold a value a PUT wrote for it.
func getBatchTagged(s *Store, k, keys uint64) error {
	var ks, vals [8]uint64
	var found [8]bool
	for j := range ks {
		ks[j] = (k + uint64(j)*keys/8) % keys
	}
	if err := s.GetBatch(ks[:], vals[:], found[:]); err != nil {
		return err
	}
	for j := range ks {
		if err := checkTagged("GetBatch", ks[j], vals[j]); err != nil || !found[j] {
			return fmt.Errorf("GetBatch key %d: %v, found %v", ks[j], err, found[j])
		}
	}
	return nil
}

// scanTagged Scans up to eight of keys present keys from k on; it must
// return each of them, in order, with a value a PUT wrote for it.
func scanTagged(s *Store, k, keys uint64) error {
	ps, err := s.Scan(k, 8)
	if err != nil {
		return err
	}
	if want := min(8, keys-k); uint64(len(ps)) != want {
		return fmt.Errorf("Scan(%d, 8) returned %d pairs, want %d", k, len(ps), want)
	}
	for j, p := range ps {
		if p.K != k+uint64(j) {
			return fmt.Errorf("Scan(%d, 8) returned key %d at %d", k, p.K, j)
		}
		if err := checkTagged("Scan", p.K, p.V); err != nil {
			return err
		}
	}
	return nil
}

// TestReadsNeverGoBackAcrossWindowClose: readers Get and GetBatch one key
// while a writer overwrites it in place with rising values, each commit
// spinning a few microseconds between its store and its drain so that
// reads land inside the window. A read that begins after another read has returned never
// returns an older value: no reader sees 20 and then 10, though each
// window answers its readers the pre-image right up to its close and the
// new value only after it.
func TestReadsNeverGoBackAcrossWindowClose(t *testing.T) {
	const k, rounds, readers = 7, 4000, 4
	opts := DefaultOptions()
	opts.Shards = 1
	opts.Events = func(site atlas.Site, _ int, _ uint64) {
		if site == atlas.SitePreCommit {
			for start := time.Now(); time.Since(start) < 2*time.Microsecond; {
			}
		}
	}
	s := newStore(t, opts)
	defer s.Close()
	if err := s.Put(k, 0); err != nil {
		t.Fatal(err)
	}
	// newest is the highest value any read has returned.
	var newest atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys, vals, found := []uint64{k}, make([]uint64, 1), make([]bool, 1)
			for !stop.Load() {
				floor := newest.Load()
				var v uint64
				var err error
				if r%2 == 0 {
					v, _, err = s.Get(k)
				} else {
					err = s.GetBatch(keys, vals, found)
					v = vals[0]
				}
				if err == nil && v < floor {
					err = fmt.Errorf("a read returned %d after another read had returned %d", v, floor)
				}
				if err != nil {
					errs <- err
					return
				}
				for n := newest.Load(); v > n && !newest.CompareAndSwap(n, v); n = newest.Load() {
				}
			}
		}()
	}
	sh := s.shards[0]
	gen := sh.db.Generation()
	for v := uint64(1); v <= rounds; v++ {
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if sh.db.Generation() != gen {
		t.Fatal("an overwrite copied on write: the test exercised no window")
	}
}

// TestLoneOverwriteCounts pins the in-place floor: a lone PUT to a present
// key is 1 store and 1 written-back line, crosses no undo-log boundary at
// all, and leaves the tree's generation and page pool as they were.
func TestLoneOverwriteCounts(t *testing.T) {
	var undo atomic.Int64
	opts := DefaultOptions()
	opts.Shards = 1
	opts.Events = func(site atlas.Site, _ int, _ uint64) {
		switch site {
		case atlas.SiteUndoBegin, atlas.SiteUndoRecord, atlas.SiteUndoPublish, atlas.SiteUndoCommit:
			undo.Add(1)
		}
	}
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
	opts.Events = func(site atlas.Site, _ int, size uint64) {
		switch {
		case site == atlas.SitePreCommit:
			sizes = append(sizes, int(size))
		case site == atlas.SiteAck && park.Load():
			entered <- struct{}{}
			<-release
		}
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
