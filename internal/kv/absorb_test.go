package kv

import (
	"sync"
	"testing"
	"time"

	"nvmcache/internal/testutil"
)

// TestAbsorbIncrDecrBasic exercises the counter verbs end to end with
// absorption on: serial post-op values, durability across Close/Recover,
// and the absorbed+committed == issued accounting invariant.
func TestAbsorbIncrDecrBasic(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 2
	opts.Absorb = AbsorbConfig{Enabled: true, Threshold: 64, Deadline: 2 * time.Millisecond}
	s := newStore(t, opts)

	if v, err := s.Incr(1, 5); err != nil || v != 5 {
		t.Fatalf("Incr(1,5) = %d,%v", v, err)
	}
	if v, err := s.Incr(1, 2); err != nil || v != 7 {
		t.Fatalf("Incr(1,2) = %d,%v", v, err)
	}
	if v, err := s.Decr(1, 3); err != nil || v != 4 {
		t.Fatalf("Decr(1,3) = %d,%v", v, err)
	}
	// Decr below zero wraps (uint64 arithmetic).
	if v, err := s.Decr(2, 1); err != nil || v != ^uint64(0) {
		t.Fatalf("Decr(2,1) = %d,%v", v, err)
	}
	if v, ok, err := s.Get(1); err != nil || !ok || v != 4 {
		t.Fatalf("Get(1) = %d,%v,%v", v, ok, err)
	}
	st := Totals(s.Stats())
	if st.Incrs != 2 || st.Decrs != 2 {
		t.Fatalf("counter stats: %+v", st)
	}
	if st.Absorbed+st.Committed != st.BatchedOps {
		t.Fatalf("absorbed %d + committed %d != issued %d", st.Absorbed, st.Committed, st.BatchedOps)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rep, err := Recover(s.Heap(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FASEsRolledBack != 0 {
		t.Fatalf("clean shutdown rolled back %d FASEs", rep.FASEsRolledBack)
	}
	if v, ok, _ := s2.Get(1); !ok || v != 4 {
		t.Fatalf("recovered Get(1) = %d,%v", v, ok)
	}
	if v, ok, _ := s2.Get(2); !ok || v != ^uint64(0) {
		t.Fatalf("recovered Get(2) = %d,%v", v, ok)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAbsorbThresholdCoalescesSameKey parks concurrent increments of one
// key until the threshold commit and checks that the accumulator folded
// them into a single physical write: absorbed = n-1, committed = 1.
func TestAbsorbThresholdCoalescesSameKey(t *testing.T) {
	const n = 8
	opts := DefaultOptions()
	opts.Shards = 1
	opts.Absorb = AbsorbConfig{Enabled: true, Threshold: n, Deadline: 10 * time.Second}
	s := newStore(t, opts)
	defer s.Close()

	var wg sync.WaitGroup
	got := make([]uint64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.Incr(42, 1)
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("incr %d: %v", i, errs[i])
		}
		seen[got[i]] = true
	}
	// Serial results: each parked increment observed a distinct running
	// value 1..n, in park order.
	for v := uint64(1); v <= n; v++ {
		if !seen[v] {
			t.Fatalf("missing serial value %d in %v", v, got)
		}
	}
	if v, ok, _ := s.Get(42); !ok || v != n {
		t.Fatalf("Get(42) = %d,%v", v, ok)
	}
	st := Totals(s.Stats())
	if st.Committed != 1 || st.Absorbed != n-1 {
		t.Fatalf("want 1 committed / %d absorbed, got %d / %d", n-1, st.Committed, st.Absorbed)
	}
	if st.AbsorbThresholdCommits != 1 {
		t.Fatalf("threshold commits = %d", st.AbsorbThresholdCommits)
	}
}

// TestAbsorbNetNullPairSkipsFASE checks the provably-net-null case: an
// increment/decrement pair over an existing key cancels to the tree's
// current state, so the accumulator commit applies zero physical writes
// and pays no FASE at all — yet both callers are acked.
func TestAbsorbNetNullPairSkipsFASE(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 1
	opts.Absorb = AbsorbConfig{Enabled: true, Threshold: 2, Deadline: 10 * time.Second}
	s := newStore(t, opts)
	defer s.Close()

	if err := s.Put(7, 100); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var ierr, derr error
	wg.Add(2)
	go func() { defer wg.Done(); _, ierr = s.Incr(7, 5) }()
	go func() { defer wg.Done(); _, derr = s.Decr(7, 5) }()
	wg.Wait()
	if ierr != nil || derr != nil {
		t.Fatalf("incr/decr: %v / %v", ierr, derr)
	}
	if v, ok, _ := s.Get(7); !ok || v != 100 {
		t.Fatalf("Get(7) = %d,%v after canceling pair", v, ok)
	}
	st := Totals(s.Stats())
	if st.Batches != 1 { // the Put's FASE only
		t.Fatalf("net-null pair paid FASEs: batches=%d", st.Batches)
	}
	if st.Absorbed != 2 || st.Committed != 1 {
		t.Fatalf("want 2 absorbed / 1 committed, got %d / %d", st.Absorbed, st.Committed)
	}
}

// TestAbsorbDeadlineCommit parks a lone increment below the threshold and
// checks the deadline path commits (and acks) it without further traffic.
func TestAbsorbDeadlineCommit(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 1
	opts.Absorb = AbsorbConfig{Enabled: true, Threshold: 1 << 20, Deadline: 2 * time.Millisecond}
	s := newStore(t, opts)
	defer s.Close()

	start := time.Now()
	if v, err := s.Incr(9, 3); err != nil || v != 3 {
		t.Fatalf("Incr = %d,%v", v, err)
	}
	if waited := time.Since(start); waited < 2*time.Millisecond {
		t.Fatalf("ack arrived %v after issue, before the deadline", waited)
	}
	st := Totals(s.Stats())
	if st.AbsorbDeadlineCommits == 0 {
		t.Fatalf("no deadline commit recorded: %+v", st)
	}
	if v, ok, _ := s.Get(9); !ok || v != 3 {
		t.Fatalf("Get(9) = %d,%v", v, ok)
	}
}

// oracleState is the brute-force serial oracle: plain maps applied in op
// order on the issuing goroutine.
type oracleState struct {
	m map[uint64]uint64
}

func (o *oracleState) put(k, v uint64)   { o.m[k] = v }
func (o *oracleState) del(k uint64) bool { _, ok := o.m[k]; delete(o.m, k); return ok }
func (o *oracleState) incr(k, d uint64) uint64 {
	o.m[k] += d
	return o.m[k]
}

// TestAbsorbDifferentialOracle drives the identical seeded op stream
// through a store with absorption on, a store with absorption off, and
// the brute oracle, sequentially — asserting identical per-op ack results
// at every step, identical final durable state after Close, and the
// absorbed+committed == issued accounting on both stores.
func TestAbsorbDifferentialOracle(t *testing.T) {
	const (
		ops  = 400
		keys = 24
	)
	rng := testutil.Rand(t, 0xab50)
	mk := func(absorb bool) *Store {
		opts := DefaultOptions()
		opts.Shards = 2
		opts.Absorb = AbsorbConfig{Enabled: absorb, Threshold: 4, Deadline: time.Millisecond}
		return newStore(t, opts)
	}
	on, off := mk(true), mk(false)
	oracle := &oracleState{m: make(map[uint64]uint64)}

	var issued uint64
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(keys))
		switch rng.Intn(10) {
		case 0, 1, 2: // PUT
			v := rng.Uint64()
			if err := on.Put(k, v); err != nil {
				t.Fatalf("op %d: absorb Put: %v", i, err)
			}
			if err := off.Put(k, v); err != nil {
				t.Fatalf("op %d: plain Put: %v", i, err)
			}
			oracle.put(k, v)
			issued++
		case 3: // DELETE
			fa, err := on.Delete(k)
			if err != nil {
				t.Fatalf("op %d: absorb Delete: %v", i, err)
			}
			fb, err := off.Delete(k)
			if err != nil {
				t.Fatalf("op %d: plain Delete: %v", i, err)
			}
			fo := oracle.del(k)
			if fa != fo || fb != fo {
				t.Fatalf("op %d: Delete(%d) found absorb=%v plain=%v oracle=%v", i, k, fa, fb, fo)
			}
			issued++
		case 4: // GET (reads bypass the queue; parked deltas invisible on both)
			va, oka, err := on.Get(k)
			if err != nil {
				t.Fatalf("op %d: absorb Get: %v", i, err)
			}
			vb, okb, err := off.Get(k)
			if err != nil {
				t.Fatalf("op %d: plain Get: %v", i, err)
			}
			if oka != okb || (oka && va != vb) {
				t.Fatalf("op %d: Get(%d) absorb=%d,%v plain=%d,%v", i, k, va, oka, vb, okb)
			}
		default: // INCR / DECR
			d := uint64(rng.Intn(9) + 1)
			onOp, offOp, delta, name := on.Incr, off.Incr, d, "Incr"
			if rng.Intn(3) == 0 {
				onOp, offOp, delta, name = on.Decr, off.Decr, -d, "Decr"
			}
			va, err := onOp(k, d)
			if err != nil {
				t.Fatalf("op %d: absorb %s: %v", i, name, err)
			}
			vb, err := offOp(k, d)
			if err != nil {
				t.Fatalf("op %d: plain %s: %v", i, name, err)
			}
			vo := oracle.incr(k, delta)
			if va != vo || vb != vo {
				t.Fatalf("op %d: %s(%d,%d) absorb=%d plain=%d oracle=%d", i, name, k, d, va, vb, vo)
			}
			issued++
		}
	}

	for _, s := range []*Store{on, off} {
		st := Totals(s.Stats())
		if st.BatchedOps != issued {
			t.Fatalf("issued %d mutations, store acked %d", issued, st.BatchedOps)
		}
		if st.Absorbed+st.Committed != issued {
			t.Fatalf("absorbed %d + committed %d != issued %d", st.Absorbed, st.Committed, issued)
		}
	}
	if st := Totals(off.Stats()); st.Absorbed != 0 {
		t.Fatalf("absorption-off store absorbed %d ops", st.Absorbed)
	}

	// Identical final durable state, on the closed stores and against the
	// oracle.
	if err := on.Close(); err != nil {
		t.Fatal(err)
	}
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		va, oka, _ := on.Get(k)
		vb, okb, _ := off.Get(k)
		vo, oko := oracle.m[k]
		if oka != oko || okb != oko || (oko && (va != vo || vb != vo)) {
			t.Fatalf("final state key %d: absorb=%d,%v plain=%d,%v oracle=%d,%v",
				k, va, oka, vb, okb, vo, oko)
		}
	}
}

// TestAbsorbOffCountersStillWork checks the INCR/DECR verbs with the
// absorption layer disabled: plain read-modify-write per op, same serial
// results.
func TestAbsorbOffCountersStillWork(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 1
	s := newStore(t, opts)
	defer s.Close()
	if v, err := s.Incr(3, 10); err != nil || v != 10 {
		t.Fatalf("Incr = %d,%v", v, err)
	}
	if v, err := s.Decr(3, 4); err != nil || v != 6 {
		t.Fatalf("Decr = %d,%v", v, err)
	}
	st := Totals(s.Stats())
	if st.Absorbed != 0 || st.Committed != st.BatchedOps {
		t.Fatalf("absorption-off accounting: %+v", st)
	}
}
