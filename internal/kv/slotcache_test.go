package kv

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"nvmcache/internal/atlas"
	"nvmcache/internal/pmem"
	"nvmcache/internal/testutil"
)

// TestSlotCacheMatchesModel drives random PUTs, DELs, MPUTs, INCRs, queued
// GETs and Gets against a model map, on a page pool so small that the
// allocator hands superseded pages out again within a commit or two, so
// the slot cache's ways keep naming pages that now hold other keys, other
// levels or nothing. Every few hundred steps the store crashes and
// recovers with the crashed store's ways carried over, stale as they are:
// between requests, or inside a PUT's commit after it is durable and
// before it is published, so that the recovered tree is one the crashed
// store's live map never described. Every Get and every queued GET —
// answered in place, from a read-only batch or from a copy-on-write
// batch — must equal the model.
func TestSlotCacheMatchesModel(t *testing.T) {
	rng := testutil.Rand(t, 0x51c7)
	var armed atomic.Bool
	opts := DefaultOptions()
	opts.Shards = 2
	opts.PoolPages = 48
	opts.Events = func(site atlas.Site, _ int, _ uint64) {
		if site == atlas.SiteAck && armed.CompareAndSwap(true, false) {
			panic(atlas.Crash{Site: site})
		}
	}
	const keys, steps = 48, 6000
	h := pmem.New(int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[uint64]uint64, keys)
	expect := func(step int, how string, k, v uint64, ok bool) {
		t.Helper()
		if want, present := model[k]; ok != present || v != want {
			t.Fatalf("step %d: %s(%d) = %d, %v; the model holds %d, %v", step, how, k, v, ok, want, present)
		}
	}
	sweep := func(step int) {
		t.Helper()
		for k := uint64(0); k < keys; k++ {
			v, ok, err := s.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			expect(step, "Get", k, v, ok)
		}
	}
	wait := func(tk *Ticket) Result {
		t.Helper()
		res := tk.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}
	var tks [3]Ticket
	for step := 0; step < steps; step++ {
		k, v := uint64(rng.Intn(keys)), uint64(rng.Int63())
		switch r := rng.Intn(100); {
		case r < 25:
			if err := s.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case r < 37:
			if _, err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		case r < 44:
			pairs := []Pair{{k, v}, {uint64(rng.Intn(keys)), v + 1}, {uint64(rng.Intn(keys)), v + 2}}
			if err := s.PutBatch(pairs); err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				model[p.K] = p.V
			}
		case r < 52:
			got, err := s.Incr(k, 3)
			if err != nil {
				t.Fatal(err)
			}
			model[k] += 3
			expect(step, "Incr", k, got, true)
		case r < 70:
			// A write and queued GETs of its key: together they commit in
			// place when the key is present, and each GET sees the write.
			s.Submit(&tks[0], OpGet, k, 0)
			s.Submit(&tks[1], OpPut, k, v)
			s.Submit(&tks[2], OpGet, k, 0)
			before := wait(&tks[0])
			expect(step, "queued GET", k, before.Val, before.Found)
			wait(&tks[1])
			model[k] = v
			after := wait(&tks[2])
			expect(step, "queued GET", k, after.Val, after.Found)
		default:
			got, ok, err := s.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			expect(step, "Get", k, got, ok)
		}
		if step%400 == 399 {
			ways := make([][]uint32, len(s.shards))
			for i, sh := range s.shards {
				ways[i] = append([]uint32(nil), sh.cache.ways...)
			}
			if step%800 == 399 {
				if err := s.Crash(); err != nil {
					t.Fatal(err)
				}
			} else {
				// A copy-on-write commit, on one shard, of a key the cache
				// holds: durable once the ack site is reached, so it survives, unacked.
				if _, _, err := s.Get(k); err != nil {
					t.Fatal(err)
				}
				k2 := k + 1
				for s.ShardFor(k2) != s.ShardFor(k) {
					k2++
				}
				armed.Store(true)
				pairs := []Pair{{k, v}, {k2, v + 1}}
				if err := s.PutBatch(pairs); err == nil {
					t.Fatal("an MPUT crashed in its ack boundary was acked")
				}
				for _, p := range pairs {
					model[p.K] = p.V
				}
				<-s.Crashed()
			}
			if s, _, err = Recover(h, opts); err != nil {
				t.Fatal(err)
			}
			// Whether or not the pool handed this recovery the crashed
			// store's caches, make it start from their ways.
			for i, sh := range s.shards {
				if len(sh.cache.ways) != len(ways[i]) {
					t.Fatalf("shard %d: recovered cache has %d ways, the crashed one %d", i, len(sh.cache.ways), len(ways[i]))
				}
				copy(sh.cache.ways, ways[i])
			}
			sweep(step)
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep(steps)
	st := Totals(s.Stats())
	if st.Descents == 0 || st.Descents >= st.Gets {
		t.Fatalf("%d descents for %d gets: the cache answered none or all of them", st.Descents, st.Gets)
	}
	s.Close()
}

// TestGetWaitsForPublish pins where the slot cache's live map flips: in
// publish, with the root readers see, not at the durable commit before it.
// A Get caches k's leaf; two copy-on-write commits of k follow, and the
// free list being last-in first-out, the second copies k's leaf back into
// the very page the cached way names. While that commit is parked between
// its commit and its publish (the ack site), the page holds k's new value, but
// the commit is not visible yet: Get must return the old value, the one a
// GetBatch taken at the same moment returns.
func TestGetWaitsForPublish(t *testing.T) {
	const k, k2 = 5, 9 // one leaf, k first
	var park atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	opts := DefaultOptions()
	opts.Shards = 1
	opts.Events = func(site atlas.Site, _ int, _ uint64) {
		if site == atlas.SiteAck && park.Load() {
			entered <- struct{}{}
			<-release
		}
	}
	s := newStore(t, opts)
	defer s.Close()
	sh := s.shards[0]
	if err := s.Put(k, 1); err != nil {
		t.Fatal(err)
	}
	if v, _, err := s.Get(k); err != nil || v != 1 {
		t.Fatalf("Get(%d) = %d, %v", k, v, err)
	}
	_, cached, _ := sh.db.Locate(sh.db.Snapshot(), k)
	if err := s.PutBatch([]Pair{{k, 2}, {k2, 2}}); err != nil {
		t.Fatal(err)
	}
	park.Store(true)
	var tk Ticket
	s.SubmitBatch(&tk, []Pair{{k, 3}, {k2, 3}})
	committed := waitOn(&tk) // its waiter commits it and parks in the hook
	<-entered
	park.Store(false)
	if _, page, _ := sh.db.Locate(sh.db.Snapshot(), k); page != cached {
		t.Fatalf("the second copy put k's leaf in page %d, not the cached page %d: the test's premise", page, cached)
	}
	v, _, err := s.Get(k)
	vals, found := make([]uint64, 1), make([]bool, 1)
	berr := s.GetBatch([]uint64{k}, vals, found)
	close(release)
	if res := <-committed; res.Err != nil {
		t.Fatal(res.Err)
	}
	if err != nil || berr != nil {
		t.Fatal(err, berr)
	}
	if vals[0] != 2 || v != 2 {
		t.Fatalf("between commit and publish: Get = %d, GetBatch = %d; want the published 2 from both", v, vals[0])
	}
	if v, _, err := s.Get(k); err != nil || v != 3 {
		t.Fatalf("after publish Get = %d, %v; want 3", v, err)
	}
}

// TestGetNeverGoesBackwards hammers Get from two readers while a writer
// churns each key through copy-on-write commits (delete, then put back)
// and an in-place overwrite, with values rising every time. A reader may
// find a key absent mid-churn, but no value it reads may be older than
// one it has read before. Run with -race: readers validate and install
// ways while the committer flips the live map and recycles pages.
func TestGetNeverGoesBackwards(t *testing.T) {
	const keys, rounds = 16, 120
	opts := DefaultOptions()
	opts.Shards = 2
	s := newStore(t, opts)
	defer s.Close()
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last [keys]uint64
			for !stop.Load() {
				for k := uint64(0); k < keys; k++ {
					v, ok, err := s.Get(k)
					if err != nil {
						errs <- err
						return
					}
					if ok && v < last[k] {
						errs <- fmt.Errorf("Get(%d) = %d after it read %d", k, v, last[k])
						return
					}
					if ok {
						last[k] = v
					}
				}
			}
		}()
	}
	for round := uint64(1); round <= rounds; round++ {
		for k := uint64(0); k < keys; k++ {
			if _, err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(k, 3*round); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(k, 3*round+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// forget clears k's set in sh's slot cache, so the next lookup of k misses.
func forget(sh *shard, k uint64) {
	i := (k * hashMul >> sh.cache.shift) * 2
	atomic.StoreUint32(&sh.cache.ways[i], 0)
	atomic.StoreUint32(&sh.cache.ways[i+1], 0)
}

// TestGetAllocs is the read path's zero-allocation gate, on a cache hit
// and on a miss that walks the tree and installs a way. It also pins what
// the descents counter counts: nothing on a hit, one walk per miss.
func TestGetAllocs(t *testing.T) {
	const k, runs = 7, 200
	opts := DefaultOptions()
	opts.Shards = 1
	s := newStore(t, opts)
	defer s.Close()
	for i := uint64(0); i < 1024; i++ {
		if err := s.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	sh := s.shards[0]
	get := func() {
		if v, ok, err := s.Get(k); err != nil || !ok || v != k {
			panic(fmt.Sprintf("Get(%d) = %d, %v, %v", k, v, ok, err))
		}
	}
	get()
	descents := func() uint64 { return s.Stats()[0].Descents }
	d := descents()
	if n := testing.AllocsPerRun(runs, get); n != 0 {
		t.Errorf("Get on a cache hit: %v allocs, want 0", n)
	}
	if got := descents() - d; got != 0 {
		t.Errorf("%d descents over repeated Gets of one present key, want 0", got)
	}
	d = descents()
	if n := testing.AllocsPerRun(runs, func() { forget(sh, k); get() }); n != 0 {
		t.Errorf("Get on a miss that installs: %v allocs, want 0", n)
	}
	if got := descents() - d; got != runs+1 { // AllocsPerRun warms up once
		t.Errorf("%d descents over %d forced misses, want %d", got, runs+1, runs+1)
	}
	if st := s.Stats()[0]; !slices.Contains(st.Pairs(), fmt.Sprintf("descents=%d", st.Descents)) {
		t.Errorf("ShardStats reports %d descents, its pairs %v", st.Descents, st.Pairs())
	}
}
