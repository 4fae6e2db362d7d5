package kv

import (
	"testing"

	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
)

// shardPolicy returns shard i's persistence policy. Only for a quiesced
// store (closed or crashed): the report is the shard thread's own state.
func shardPolicy(s *Store, i int) interface {
	core.CapacityControlled
	core.SizeReporter
} {
	return s.shards[i].th.Policy().(interface {
		core.CapacityControlled
		core.SizeReporter
	})
}

// adaptedStore opens a store on the online policy (-policy SC; the serving
// default is a fixed capacity, which writes no advisory word), lets it
// finish its sampling burst within a few hundred puts, writes until every
// shard has resized away from the default, and crashes it.
func adaptedStore(t *testing.T) (*pmem.Heap, Options, []int) {
	t.Helper()
	opts := DefaultOptions()
	opts.Policy = core.SoftCacheOnline
	opts.Config.PresetSize = 0
	opts.Shards = 2
	opts.Config.BurstLength = 1 << 12
	h := pmem.New(2 * int(RecommendedHeapBytes(opts)))
	s, err := Open(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Wide batches of puts to scattered keys: long FASEs with heavy page
	// reuse, so the knee lands well away from the default capacity. (With
	// 2-line pages, 64-put batches of consecutive keys knee at 8 or 9, on
	// or next to the default.)
	pairs := make([]Pair, 256)
	for round := uint64(0); round < 64; round++ {
		for i := range pairs {
			pairs[i] = Pair{K: (round*256 + uint64(i)) * 7919 % (1 << 20), V: round}
		}
		if err := s.PutBatch(pairs); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	caps := make([]int, opts.Shards)
	for i := range caps {
		p := shardPolicy(s, i)
		rep := p.AdaptReport()
		if !rep.Adapted || rep.ChosenSize == rep.InitialSize {
			t.Fatalf("shard %d never resized before the crash: %+v", i, rep)
		}
		caps[i] = p.CacheSize()
	}
	return h, opts, caps
}

// TestCapacityCarriedAcrossRecover: a recovered shard thread starts at the
// capacity its previous incarnation adapted to and does not sample again —
// one burst, one MRC analysis per thread, across any number of crashes.
func TestCapacityCarriedAcrossRecover(t *testing.T) {
	h, opts, want := adaptedStore(t)
	for cycle := 0; cycle < 3; cycle++ {
		s, _, err := Recover(h, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 2000; k++ { // far more stores than one burst
			if err := s.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Crash(); err != nil {
			t.Fatal(err)
		}
		for i, c := range want {
			p := shardPolicy(s, i)
			if got := p.CacheSize(); got != c {
				t.Fatalf("cycle %d shard %d: capacity %d after recovery, want the pre-crash %d", cycle, i, got, c)
			}
			if rep := p.AdaptReport(); rep.AnalyzedWrites != 0 || rep.Adapted {
				t.Fatalf("cycle %d shard %d: recovered thread sampled again: %+v", cycle, i, rep)
			}
		}
	}
}

// TestCapacityWordGarbageFallsBackToSampling: the advisory word is
// self-checking, so a torn, foreign or out-of-range value is ignored and
// the recovered thread sizes itself online exactly as a fresh one does.
func TestCapacityWordGarbageFallsBackToSampling(t *testing.T) {
	for name, word := range map[string]uint64{
		"zero":         0,
		"torn":         capWord(14) &^ (0xff << 32),
		"garbage":      0xdeadbeefcafef00d,
		"out-of-range": capWord(4096),
	} {
		t.Run(name, func(t *testing.T) {
			h, opts, _ := adaptedStore(t)
			dir := h.Root()
			addr := dir + capOff(opts.Shards) // shard 0's word
			h.WriteUint64(addr, word)
			h.Persist(addr, 8)
			s, _, err := Recover(h, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Crash(); err != nil {
				t.Fatal(err)
			}
			def := opts.Config.Knee.DefaultSize
			if got := shardPolicy(s, 0).AdaptReport().InitialSize; got != def {
				t.Fatalf("shard 0 started at capacity %d from word %#x, want the default %d", got, word, def)
			}
			if rep := shardPolicy(s, 1).AdaptReport(); rep.InitialSize == def {
				t.Fatalf("shard 1's intact word was not adopted: %+v", rep)
			}
		})
	}
}

func TestCapacityWordRoundTrip(t *testing.T) {
	for _, c := range []int{1, 8, 14, 50} {
		if got, ok := savedCapacity(capWord(c), 50); !ok || got != c {
			t.Fatalf("capWord(%d) decodes to %d,%v", c, got, ok)
		}
	}
	if _, ok := savedCapacity(capWord(51), 50); ok {
		t.Fatal("capacity above the knee bound accepted")
	}
}
