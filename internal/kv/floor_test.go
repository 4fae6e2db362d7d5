package kv

import (
	"math/rand"
	"testing"
)

// flushProbe drives one store through the serving shape the capacity
// choice is about: a 64 k-key preload (every eighth key), then lone PUTs
// of fresh keys between them, then 64-PUT batches overwriting preloaded
// keys. Both measured phases copy on write: a lone insert cannot commit
// in place, and neither can an MPUT. It reports line flushes per put for
// each phase. One goroutine submits a fixed sequence, so every store
// commits the same FASEs and only the cache capacity differs.
func flushProbe(t *testing.T, opts Options) (lone, batched float64) {
	t.Helper()
	const (
		keys    = 1 << 16
		lonePut = 512
		batches = 32
	)
	s := newStore(t, opts)
	defer s.Close()
	pairs := make([]Pair, 256)
	for base := 0; base < keys; base += len(pairs) {
		for i := range pairs {
			pairs[i] = Pair{K: 8 * uint64(base+i), V: 1}
		}
		if err := s.PutBatch(pairs); err != nil {
			t.Fatal(err)
		}
	}
	flushes := func() int64 { return Totals(s.Stats()).Flushes() }

	rng := rand.New(rand.NewSource(1))
	before := flushes()
	for _, k := range rng.Perm(keys)[:lonePut] {
		if err := s.Put(8*uint64(k)+4, 2); err != nil {
			t.Fatal(err)
		}
	}
	lone = float64(flushes()-before) / lonePut

	before = flushes()
	pairs = pairs[:64]
	for b := 0; b < batches; b++ {
		for i := range pairs {
			pairs[i] = Pair{K: 8 * uint64(rng.Intn(keys)), V: 3}
		}
		if err := s.PutBatch(pairs); err != nil {
			t.Fatal(err)
		}
	}
	batched = float64(flushes()-before) / float64(batches*len(pairs))
	return lone, batched
}

// TestServingCacheReachesFlushFloor: the serving configuration's cache
// (DefaultOptions: the software cache fixed at Knee.MaxSize) flushes no
// more than the FASE's distinct lines on a lone insert, stays within 10 % of
// them on 64-PUT batches, and never flushes more than at 15, the capacity
// the online selector picked for a kv shard during a preload. The floor is
// a twin store whose cache never evicts, so it writes back exactly the
// distinct lines of each FASE at its end.
func TestServingCacheReachesFlushFloor(t *testing.T) {
	at := func(capacity int) Options {
		o := DefaultOptions()
		o.Config.PresetSize = capacity
		return o
	}
	lone, batched := flushProbe(t, DefaultOptions())
	floorLone, floorBatched := flushProbe(t, at(1<<20))
	onlineLone, onlineBatched := flushProbe(t, at(15))
	t.Logf("lines per put: lone %.3f (floor %.3f, capacity 15 %.3f); 64-PUT batches %.3f (floor %.3f, capacity 15 %.3f)",
		lone, floorLone, onlineLone, batched, floorBatched, onlineBatched)

	if lone != floorLone {
		t.Errorf("lone PUT flushes %.3f lines, want the floor %.3f", lone, floorLone)
	}
	if batched > 1.10*floorBatched {
		t.Errorf("64-PUT batches flush %.3f lines per put, want ≤ 1.10 × the floor %.3f", batched, floorBatched)
	}
	if lone > onlineLone || batched > onlineBatched {
		t.Errorf("serving cache flushes more than capacity 15: lone %.3f > %.3f or batched %.3f > %.3f",
			lone, onlineLone, batched, onlineBatched)
	}
}
