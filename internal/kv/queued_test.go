package kv

import (
	"sync/atomic"
	"testing"

	"nvmcache/internal/atlas"
)

// TestQueuedReadsShareCommit: a GET submitted behind its own PUT rides that
// PUT's group commit instead of splitting the batch. With a commit parked
// on a blocker, 8 × (PUT kᵢ, GET kᵢ) queue up and commit as one FASE of 16
// requests; each GET answers its PUT's value; the stats count the 8 PUTs
// only. The pairs run twice: on fresh keys, whose PUTs insert
// copy-on-write and so flush fewer lines each than a lone insert, and on
// keys already present, whose PUTs overwrite in place and flush at most
// their one value line each. A batch of GETs alone opens no FASE: it moves
// no batch, op or flush counter.
func TestQueuedReadsShareCommit(t *testing.T) {
	const (
		keys  = 4096
		pairs = 8
	)
	var park atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	var sizes []int // request count of every FASE that reached its commit
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
	// The preload holds the multiples of 8 below 8·keys, so keys between
	// them, spread across the whole tree, are fresh.
	preload := make([]Pair, 256)
	for base := 0; base < keys; base += len(preload) {
		for i := range preload {
			preload[i] = Pair{K: 8 * uint64(base+i), V: 1}
		}
		if err := s.PutBatch(preload); err != nil {
			t.Fatal(err)
		}
	}
	flushes := func() int64 { return Totals(s.Stats()).Flushes() }

	// A lone insert's lines, averaged over fresh keys spread across the tree.
	const lonePuts = 16
	before := flushes()
	for i := uint64(0); i < lonePuts; i++ {
		if err := s.Put(i*(8*keys/lonePuts)+3, 2); err != nil {
			t.Fatal(err)
		}
	}
	lone := float64(flushes()-before) / lonePuts

	// Park a commit on a blocker, queue the pairs, release it: the pairs
	// form the next batch, whose committer — the first pair's waiter —
	// parks in turn so its stats can be read.
	var tickets [2 * pairs]Ticket
	sharedLines := func(key func(i int) uint64, val uint64) float64 {
		park.Store(true)
		var blocker Ticket
		s.Submit(&blocker, OpPut, 8*keys+1, 1)
		blocked := waitOn(&blocker)
		<-entered
		for i := 0; i < pairs; i++ {
			s.Submit(&tickets[2*i], OpPut, key(i), val+uint64(i))
			s.Submit(&tickets[2*i+1], OpGet, key(i), 0)
		}
		release <- struct{}{}
		if res := <-blocked; res.Err != nil {
			t.Fatal(res.Err)
		}
		first := waitOn(&tickets[0])
		<-entered
		mid := Totals(s.Stats())
		park.Store(false)
		release <- struct{}{}
		for i := range tickets {
			var res Result
			if i == 0 {
				res = <-first
			} else {
				res = tickets[i].Wait()
			}
			want := Result{}
			if i%2 == 1 {
				want = Result{Val: val + uint64(i/2), Found: true}
			}
			if res != want {
				t.Fatalf("request %d: result %+v, want %+v", i, res, want)
			}
		}
		after := Totals(s.Stats())
		if got := sizes[len(sizes)-1]; got != 2*pairs || after.Batches-mid.Batches != 1 {
			t.Fatalf("pairs committed in %d batches, the last of %d requests; want 1 of %d",
				after.Batches-mid.Batches, got, 2*pairs)
		}
		if ops := after.BatchedOps - mid.BatchedOps; ops != pairs {
			t.Fatalf("BatchedOps grew by %d, want %d (GETs are not committed ops)", ops, pairs)
		}
		return float64(after.Flushes()-mid.Flushes()) / pairs
	}
	shared := sharedLines(func(i int) uint64 { return uint64(i)*(8*keys/pairs) + 5 }, 100)
	t.Logf("lines per insert: lone %.3f, %d inserts sharing a FASE with their GETs %.3f", lone, pairs, shared)
	if shared >= lone {
		t.Fatalf("shared batch flushes %.3f lines per insert, want < a lone insert's %.3f", shared, lone)
	}
	key := func(i int) uint64 { return 8 * uint64(i) * (keys / pairs) }
	if inPlace := sharedLines(key, 100); inPlace > 1 {
		t.Fatalf("%d overwrites sharing a FASE flush %.3f lines each, want at most their value line", pairs, inPlace)
	}

	// GETs alone: answered from the committed tree, with no FASE.
	th := s.shards[0].th
	preFlush := th.FlushStats()
	pre := Totals(s.Stats())
	for i := 0; i < pairs; i++ {
		s.Submit(&tickets[i], OpGet, key(i), 0)
	}
	s.Submit(&tickets[pairs], OpGet, 1<<50, 0)
	for i := 0; i < pairs; i++ {
		if res := tickets[i].Wait(); res != (Result{Val: 100 + uint64(i), Found: true}) {
			t.Fatalf("GET-only batch, key %d: %+v", key(i), res)
		}
	}
	if res := tickets[pairs].Wait(); res != (Result{}) {
		t.Fatalf("GET of an absent key: %+v, want not found", res)
	}
	post := Totals(s.Stats())
	if post.Batches != pre.Batches || post.BatchedOps != pre.BatchedOps || th.FlushStats() != preFlush {
		t.Fatalf("GET-only batches moved the commit counters: batches %d→%d, ops %d→%d, flushes %+v→%+v",
			pre.Batches, post.Batches, pre.BatchedOps, post.BatchedOps, preFlush, th.FlushStats())
	}
	if got := post.Gets - pre.Gets; got != pairs+1 {
		t.Fatalf("Gets grew by %d, want %d", got, pairs+1)
	}
}
