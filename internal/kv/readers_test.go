package kv

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmcache/internal/trace"
)

// The reader table's contract, run with -race: pins keep every page a
// reader can reach from being recycled, the table never runs out for good,
// a consistent read never sees half an in-place batch, and a crash waits
// for the reads in flight.

// poison is what poisonRecycled writes over a recycled page.
const poison = 0xDEADBEEFDEADBEEF

// poisonRecycled has publish overwrite every page it recycles with poison
// until the test ends, so a reader still on such a page reads garbage —
// and, under -race, races the committer's stores. It returns the count of
// pages poisoned.
func poisonRecycled(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	recycleHook = func(sh *shard, pages []uint64) {
		size := uint64(sh.db.PageLines()) * trace.LineSize
		for _, p := range pages {
			for off := uint64(0); off < size; off += 8 {
				sh.st.heap.WriteUint64(p+off, poison)
			}
		}
		n.Add(int64(len(pages)))
	}
	t.Cleanup(func() { recycleHook = nil })
	return &n
}

// tagged is the value the tests below write for key k in round r: a reader
// can tell from it which key it belongs to.
func tagged(k, r uint64) uint64 { return k<<32 | r }

// checkTagged reports a value read for k that no PUT wrote for k.
func checkTagged(how string, k, v uint64) error {
	if v>>32 != k {
		return fmt.Errorf("%s read %#x for key %d: no PUT wrote it", how, v, k)
	}
	return nil
}

// readEverything is one reader's pass over keys with Get, GetBatch or Scan
// (by turn), checking every value it reads against the key it came from.
func readEverything(s *Store, turn int, keys uint64) error {
	switch turn % 3 {
	case 0:
		for k := uint64(0); k < keys; k++ {
			v, ok, err := s.Get(k)
			if err != nil {
				return err
			}
			if ok {
				if err := checkTagged("Get", k, v); err != nil {
					return err
				}
			}
		}
	case 1:
		var ks, vals [8]uint64
		var found [8]bool
		for base := uint64(0); base < keys; base += uint64(len(ks)) {
			for i := range ks {
				ks[i] = (base + uint64(i)*keys/8) % keys
			}
			if err := s.GetBatch(ks[:], vals[:], found[:]); err != nil {
				return err
			}
			for i := range ks {
				if found[i] {
					if err := checkTagged("GetBatch", ks[i], vals[i]); err != nil {
						return err
					}
				}
			}
		}
	case 2:
		for start := uint64(0); start < keys; start += 16 {
			ps, err := s.Scan(start, 16)
			if err != nil {
				return err
			}
			for i, p := range ps {
				if p.K < start || i > 0 && p.K <= ps[i-1].K {
					return fmt.Errorf("Scan(%d) returned key %d out of order", start, p.K)
				}
				if err := checkTagged("Scan", p.K, p.V); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// churn runs rounds of copy-on-write commits over keys on s (see
// churnRound).
func churn(s *Store, rounds, keys uint64) error {
	for r := uint64(1); r <= rounds; r++ {
		if err := churnRound(s, r, keys); err != nil {
			return err
		}
	}
	return nil
}

// churnRound is round r of copy-on-write commits over keys on s: it
// deletes one key and puts it back (two commits), and puts a batch of four
// (one more; an MPUT always copies), so every round frees pages.
func churnRound(s *Store, r, keys uint64) error {
	k := r * 7 % keys
	if _, err := s.Delete(k); err != nil {
		return err
	}
	if err := s.Put(k, tagged(k, r)); err != nil {
		return err
	}
	var batch [4]Pair
	for i := range batch {
		bk := (k + 1 + uint64(i)*keys/4) % keys
		batch[i] = Pair{bk, tagged(bk, r)}
	}
	return s.PutBatch(batch[:])
}

// TestReadersNeverSeeRecycledPages: readers doing Get, GetBatch and Scan
// while a writer makes copy-on-write commits on one shard, whose inserts
// and deletes free pages every commit, never read a value no PUT wrote for
// its key, though every page publish recycles is poisoned first. The writer
// makes at least 1 200 commits, and goes on, paced, until every reader has
// finished a pass: Scans queue for the commit lock behind it.
func TestReadersNeverSeeRecycledPages(t *testing.T) {
	const keys, rounds, readers = 256, 400, 3
	recycled := poisonRecycled(t)
	opts := DefaultOptions()
	opts.Shards = 1
	s := newStore(t, opts)
	defer s.Close()
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, tagged(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var passes [readers]atomic.Int64
	// passed reports whether every reader has finished a pass, or one has
	// failed and will make no more.
	passed := func() bool {
		for r := range passes {
			if passes[r].Load() == 0 {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := readEverything(s, r, keys); err != nil {
					errs <- err
					passes[r].Store(-1)
					return
				}
				passes[r].Add(1)
			}
		}()
	}
	var err error
	deadline := time.Now().Add(time.Minute)
	r := uint64(1)
	sh := s.shards[0]
	for ; err == nil && (r <= rounds || !passed()) && time.Now().Before(deadline); r++ {
		// A reader descheduled while pinned parks every page freed until it
		// runs again, about 23 a round, so churning flat out can exhaust
		// the pool under it: pause while the pool runs low, and past the
		// fixed rounds, to leave the readers the CPU. (The pool is this
		// goroutine's to read: it makes every commit.)
		if r > rounds || sh.db.PoolRemaining() < 2048 {
			time.Sleep(100 * time.Microsecond)
		}
		err = churnRound(s, r, keys)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	if err != nil {
		t.Fatal(err)
	}
	for err := range errs {
		t.Fatal(err)
	}
	var total int64
	for i := range passes {
		if passes[i].Load() == 0 {
			t.Fatalf("reader %d finished no pass in %d rounds of churn", i, r-1)
		}
		total += passes[i].Load()
	}
	if recycled.Load() == 0 {
		t.Fatalf("no page recycled under %d read passes: the test exercised nothing", total)
	}
	t.Logf("%d pages recycled under %d read passes in %d rounds", recycled.Load(), total, r-1)
}

// TestMoreReadersThanSlots: three times as many concurrent readers as a
// shard's reader table has slots, mixing Gets, GetBatches across both
// shards and Scans while a writer commits, all finish with the values the
// PUTs wrote: a reader that finds every slot busy waits for one, and
// GetBatches, which pin several shards at once, never wait on each other.
func TestMoreReadersThanSlots(t *testing.T) {
	const keys, readers, passes = 64, 3 * readerSlots, 4
	recycled := poisonRecycled(t)
	opts := DefaultOptions()
	opts.Shards = 2
	s := newStore(t, opts)
	defer s.Close()
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, tagged(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	start := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for p := 0; p < passes; p++ {
				if err := readEverything(s, r+p, keys); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := churn(s, 50, keys); err != nil {
			errs <- err
		}
	}()
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("%d readers on %d-slot tables did not finish", readers, readerSlots)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("%d pages recycled", recycled.Load())
}

// TestGetWaitsForAFreeSlot: with every slot of a shard's reader table
// busy, a Get waits, and it returns once a slot frees.
func TestGetWaitsForAFreeSlot(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 1
	s := newStore(t, opts)
	defer s.Close()
	if err := s.Put(5, tagged(5, 0)); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	var busy []*readerSlot
	for len(busy) < readerSlots {
		busy = append(busy, sh.claim(0, 1))
	}
	got := make(chan error, 1)
	go func() {
		v, ok, err := s.Get(5)
		if err == nil && (!ok || v != tagged(5, 0)) {
			err = fmt.Errorf("Get(5) = %#x, %v", v, ok)
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Get returned %v with every reader slot busy", err)
	case <-time.After(50 * time.Millisecond):
	}
	busy[len(busy)-1].unpin()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	for _, rs := range busy[:len(busy)-1] {
		rs.unpin()
	}
}

// TestCrashWithReadsInFlight: Crash, with Gets running on every shard,
// returns once the reads in flight are through, and from then on every
// read returns ErrCrashed. Recover finds every acked write. Under -race
// this also checks that no read overlaps the heap's crash.
func TestCrashWithReadsInFlight(t *testing.T) {
	const keys, readers = 256, 4
	opts := DefaultOptions()
	opts.Shards = 2
	s := newStore(t, opts)
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, tagged(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var reads atomic.Int64
	var wg sync.WaitGroup
	ended := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(r); ; i++ {
				k := i % keys
				v, ok, err := s.Get(k)
				if err != nil {
					ended <- err
					return
				}
				if !ok || v != tagged(k, 0) {
					ended <- fmt.Errorf("Get(%d) = %#x, %v before the crash", k, v, ok)
					return
				}
				reads.Add(1)
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	for reads.Load() < 1000 {
		runtime.Gosched()
	}
	crashed := make(chan error, 1)
	go func() { crashed <- s.Crash() }()
	select {
	case err := <-crashed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Crash did not return with Gets in flight")
	}
	wg.Wait()
	close(ended)
	for err := range ended {
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("a reader ended with %v, want ErrCrashed", err)
		}
	}
	if _, _, err := s.Get(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Get after the crash: %v", err)
	}
	vals, found := make([]uint64, 2), make([]bool, 2)
	if err := s.GetBatch([]uint64{1, 2}, vals, found); !errors.Is(err, ErrCrashed) {
		t.Fatalf("GetBatch after the crash: %v", err)
	}
	if _, err := s.Scan(0, 4); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Scan after the crash: %v", err)
	}

	s2, _, err := Recover(s.Heap(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for k := uint64(0); k < keys; k++ {
		if v, ok, err := s2.Get(k); err != nil || !ok || v != tagged(k, 0) {
			t.Fatalf("after recovery Get(%d) = %#x, %v, %v", k, v, ok, err)
		}
	}
}

// TestCutsSeeNoInPlaceOverwrite: a writer overwrites two present keys in
// place as fast as it can, both in one batch, while readers take
// consistent cuts of the shard — Scans and GetBatches over both keys. Each
// must read one value for both: a Scan that walks while an in-place batch
// stores, or a GetBatch whose loads straddle a window unrepaired, would
// read one key's new value beside the other's old one.
func TestCutsSeeNoInPlaceOverwrite(t *testing.T) {
	const k1, k2, cuts = 7, 8, 3000
	opts := DefaultOptions()
	opts.Shards = 1
	s := newStore(t, opts)
	defer s.Close()
	if err := s.PutBatch([]Pair{{k1, 0}, {k2, 0}}); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	w0, gen0 := sh.window.Load(), sh.db.Generation()
	var stop atomic.Bool
	var puts atomic.Uint64
	writer := make(chan error, 1)
	go func() {
		var t1, t2 Ticket
		for v := uint64(1); !stop.Load(); v++ {
			// Both queued before the first Wait commits them: one batch.
			s.Submit(&t1, OpPut, k1, v)
			s.Submit(&t2, OpPut, k2, v)
			err := t1.Wait().Err
			if err == nil {
				err = t2.Wait().Err
			}
			if err != nil {
				stop.Store(true)
				writer <- err
				return
			}
			puts.Store(v)
		}
		writer <- nil
	}()
	keys, vals, found := []uint64{k1, k2}, make([]uint64, 2), make([]bool, 2)
	for i := 0; i < cuts && !t.Failed(); i++ {
		// Let a batch through between cuts, so each cut meets a fresh one.
		for n := puts.Load(); puts.Load() == n && !stop.Load(); {
			runtime.Gosched()
		}
		if i%2 == 0 {
			ps, err := s.Scan(k1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(ps) != 2 || ps[0].K != k1 || ps[1].K != k2 {
				t.Fatalf("Scan(%d, 2) = %v", k1, ps)
			}
			if ps[0].V != ps[1].V {
				t.Errorf("one Scan read %d, then %d", ps[0].V, ps[1].V)
			}
		} else if err := s.GetBatch(keys, vals, found); err != nil {
			t.Fatal(err)
		} else if vals[0] != vals[1] {
			t.Errorf("one GetBatch read %d, then %d", vals[0], vals[1])
		}
	}
	stop.Store(true)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	// Every commit moves window by 2; a copy-on-write one also moves the
	// generation by 1.
	if n := (sh.window.Load()-w0)/2 - (sh.db.Generation() - gen0); n == 0 {
		t.Fatal("no overwrite committed in place: the test exercised nothing")
	} else {
		t.Logf("%d overwrite batches committed in place", n)
	}
}

// TestPublishFlipsBeforeView: two readers Get one key in a tight loop while
// a writer commits 3 000 rising values of it copy-on-write. A reader never
// reads a value older than one it has read, nor one no PUT wrote: publish
// flips the slot cache's live map before it stores the new view, so a
// reader that found the new leaf cannot be sent back to the old one, which
// is still live, nor onto a page recycled under a stale way.
func TestPublishFlipsBeforeView(t *testing.T) {
	const k, rounds = 5, 3000
	recycled := poisonRecycled(t)
	opts := DefaultOptions()
	opts.Shards = 1
	s := newStore(t, opts)
	defer s.Close()
	if err := s.Put(k, 1); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				v, ok, err := s.Get(k)
				switch {
				case err != nil || !ok || v > rounds:
					errs <- fmt.Errorf("Get(%d) = %#x, %v, %v", k, v, ok, err)
					return
				case v < last:
					errs <- fmt.Errorf("Get(%d) = %d after it read %d", k, v, last)
					return
				}
				last = v
			}
		}()
	}
	for r := uint64(2); r <= rounds; r++ {
		if err := s.PutBatch([]Pair{{k, r}, {k + 1000, r}}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if recycled.Load() == 0 {
		t.Fatal("no page recycled: the test exercised nothing")
	}
}

// TestGetWaitsOutPublish: no Get or GetBatch completes inside a
// copy-on-write publish. With the commit's publish parked after its
// live-map flip, before its view store, a read neither returns the old
// value (a read before it may already have read the new one through the
// flipped map) nor the new one; it returns the new value once the publish
// is through. A parked publish fails every lock-free pass, so both reads
// end up waiting for the commit lock. Two in-place
// overwrites go first, so both pre-image tables hold the key's word from
// an earlier window: a read that trusted a table not made for the odd
// window it meets would answer from one.
func TestGetWaitsOutPublish(t *testing.T) {
	const k = 5
	var armed atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	publishHook = func() {
		if armed.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
	}
	t.Cleanup(func() { publishHook = nil })
	opts := DefaultOptions()
	opts.Shards = 1
	s := newStore(t, opts)
	defer s.Close()
	for v := uint64(0); v <= 2; v++ {
		if err := s.Put(k, v/2); err != nil { // an insert, then two in-place overwrites
			t.Fatal(err)
		}
	}
	if st := Totals(s.Stats()); st.Batches-st.CowBatches != 2 {
		t.Fatalf("%d of %d batches committed in place, want 2", st.Batches-st.CowBatches, st.Batches)
	}
	armed.Store(true)
	var tk Ticket
	s.SubmitBatch(&tk, []Pair{{k, 2}, {k + 1000, 2}}) // an MPUT copies on write
	committed := waitOn(&tk)                          // its waiter commits it and parks in publish
	<-parked
	type read struct {
		how string
		v   uint64
		err error
	}
	got := make(chan read, 2)
	go func() {
		v, _, err := s.Get(k)
		got <- read{"Get", v, err}
	}()
	go func() {
		vals, found := make([]uint64, 2), make([]bool, 2)
		err := s.GetBatch([]uint64{k + 1000, k}, vals, found)
		got <- read{"GetBatch", vals[1], err}
	}()
	select {
	case r := <-got:
		close(release)
		t.Fatalf("%s returned %d, %v inside a publish", r.how, r.v, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if res := <-committed; res.Err != nil {
		t.Fatal(res.Err)
	}
	for range 2 {
		if r := <-got; r.err != nil || r.v != 2 {
			t.Fatalf("%s after the publish = %d, %v; want 2", r.how, r.v, r.err)
		}
	}
}
