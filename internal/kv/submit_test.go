package kv

import (
	"errors"
	"testing"
)

// TestSubmitWaitAllocs is the write path's zero-allocation gate: once the
// store is warm, Submit → group commit → Wait allocates nothing, for a lone
// caller (one-op FASEs) and for a 64-deep window (natural batches), because
// the tickets are the caller's and everything per batch — the request,
// result and slot slices, the transaction's maps, the freed-page lists — is
// reused. It holds on both commit paths: overwrites of present keys, which
// commit in place, and a delete and re-put of each key, which copy on
// write.
func TestSubmitWaitAllocs(t *testing.T) {
	workloads := []struct {
		name string
		req  func(n uint64) (Op, uint64) // the n-th request's op and key
	}{
		{"overwrite", func(n uint64) (Op, uint64) { return OpPut, n % 4096 }},
		{"cow", func(n uint64) (Op, uint64) {
			if n%2 == 0 {
				return OpDel, n / 2 % 4096
			}
			return OpPut, n / 2 % 4096
		}},
	}
	for _, w := range workloads {
		for _, depth := range []int{1, 64} {
			opts := DefaultOptions()
			// The online cache sizes itself once, after one sampled burst per
			// shard thread; a short burst puts that one-time MRC analysis
			// inside the warm-up whatever the batch shape.
			opts.Config.BurstLength = 1 << 12
			s := newStore(t, opts)
			tickets := make([]Ticket, depth)
			n := uint64(0)
			window := func() {
				for i := range tickets {
					op, k := w.req(n)
					s.Submit(&tickets[i], op, k, n)
					n++
				}
				for i := range tickets {
					if res := tickets[i].Wait(); res.Err != nil {
						panic(res.Err)
					}
				}
			}
			for i := 0; i < 2*4096/depth; i++ { // warm: tree shape, page pool, every reused buffer
				window()
			}
			if n := testing.AllocsPerRun(200, window); n != 0 {
				t.Errorf("%s, depth %d: Submit→commit→Wait allocs per window = %v, want 0", w.name, depth, n)
			}
			s.Close()
		}
	}
}

// TestSubmitBatchReusesTicket: a ticket carries one batch after another,
// and the caller's pairs slice is free for reuse as soon as SubmitBatch
// returns.
func TestSubmitBatchReusesTicket(t *testing.T) {
	s := newStore(t, DefaultOptions())
	defer s.Close()
	var tk Ticket
	pairs := make([]Pair, 100)
	for round := uint64(1); round <= 3; round++ {
		for i := range pairs {
			pairs[i] = Pair{K: uint64(i), V: round}
		}
		s.SubmitBatch(&tk, pairs)
		for i := range pairs {
			pairs[i] = Pair{K: 1 << 50, V: 0} // scribble: the batch must not alias it
		}
		if res := tk.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
		for k := uint64(0); k < 100; k++ {
			if v, ok, _ := s.Get(k); !ok || v != round {
				t.Fatalf("round %d: Get(%d) = %d,%v", round, k, v, ok)
			}
		}
	}
	if _, ok, _ := s.Get(1 << 50); ok {
		t.Fatal("the batch read the caller's slice after SubmitBatch returned")
	}
}

// TestSubmitAfterCloseCompletesTicket: a refused Submit still completes its
// ticket, so callers have one path — Wait — for every outcome.
func TestSubmitAfterCloseCompletesTicket(t *testing.T) {
	s := newStore(t, DefaultOptions())
	s.Close()
	var tk Ticket
	s.Submit(&tk, OpPut, 1, 1)
	if res := tk.Wait(); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", res.Err)
	}
	s.SubmitBatch(&tk, []Pair{{K: 1, V: 1}, {K: 2, V: 2}, {K: 3, V: 3}})
	if res := tk.Wait(); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("SubmitBatch after Close: %v, want ErrClosed", res.Err)
	}
}

// TestServingPathTakesNoStripe pins that the default store serves without
// the heap's lock stripes: a window of 64 PUTs through Submit → group
// commit → Wait, then every key read back with Get and GetBatch, leaves
// StripeSummary().Acquired where it was. The stripes are taken only by
// durable reads and whole-heap operations, none of which serving runs.
func TestServingPathTakesNoStripe(t *testing.T) {
	s := newStore(t, DefaultOptions())
	defer s.Close()
	const depth = 64
	tickets := make([]Ticket, depth)
	keys := make([]uint64, depth)
	vals := make([]uint64, depth)
	found := make([]bool, depth)
	before := s.StripeSummary().Acquired
	for round := uint64(1); round <= 3; round++ {
		for i := range tickets {
			keys[i] = uint64(i) * 7919
			s.Submit(&tickets[i], OpPut, keys[i], round<<32|uint64(i))
		}
		for i := range tickets {
			if res := tickets[i].Wait(); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		for i, k := range keys {
			if v, ok, err := s.Get(k); err != nil || !ok || v != round<<32|uint64(i) {
				t.Fatalf("round %d: Get(%d) = %d,%v,%v", round, k, v, ok, err)
			}
		}
		if err := s.GetBatch(keys, vals, found); err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			if !found[i] || vals[i] != round<<32|uint64(i) {
				t.Fatalf("round %d: GetBatch[%d] = %d,%v", round, i, vals[i], found[i])
			}
		}
	}
	if got := s.StripeSummary().Acquired - before; got != 0 {
		t.Fatalf("serving 3 windows of %d PUTs and their GETs acquired %d stripes, want 0", depth, got)
	}
}
