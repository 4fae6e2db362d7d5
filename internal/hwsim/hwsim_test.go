package hwsim

import (
	"nvmcache/internal/testutil"
	"testing"
	"testing/quick"

	"nvmcache/internal/trace"
)

func testModel() CostModel {
	cm := DefaultCostModel()
	cm.ComputePerStore = 10
	cm.FlushIssue = 5
	cm.FlushLatency = 100
	cm.MaxOutstanding = 2
	cm.InvalidateMissPenalty = 50
	cm.FASEOverhead = 0
	return cm
}

func TestEngineStoreCosts(t *testing.T) {
	e := NewEngine(testModel(), 1)
	e.OnStore(1, NoInstrument)
	if e.Now() != 10 {
		t.Fatalf("plain store cost %v, want 10", e.Now())
	}
	e.OnStore(2, TableInstrument)
	if e.Now() != 10+10+4 {
		t.Fatalf("instrumented store total %v, want 24", e.Now())
	}
	st := e.Stats()
	if st.Stores != 2 || st.TableCycles != 4 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEngineAsyncOverlap(t *testing.T) {
	// Two slots: two back-to-back flushes only pay issue cost; a third
	// must wait for the first transfer to finish.
	e := NewEngine(testModel(), 1)
	e.FlushAsync(1) // issued at 5, completes 105
	e.FlushAsync(2) // issued at 10, completes 110
	if e.Now() != 10 {
		t.Fatalf("after 2 async: now=%v, want 10 (fully overlapped)", e.Now())
	}
	e.FlushAsync(3) // issue at 15, then queue full: waits until 105
	if e.Now() != 105 {
		t.Fatalf("after queue-full flush: now=%v, want 105", e.Now())
	}
	if e.Stats().QueueStall <= 0 {
		t.Fatal("queue stall not recorded")
	}
}

func TestEngineAsyncRetiresCompleted(t *testing.T) {
	e := NewEngine(testModel(), 1)
	e.FlushAsync(1)
	// Long computation lets the transfer finish.
	for i := 0; i < 30; i++ {
		e.OnStore(trace.LineAddr(100+i), NoInstrument)
	}
	before := e.Now()
	e.FlushAsync(2)
	if e.Now() != before+5 {
		t.Fatalf("flush after idle queue stalled: %v -> %v", before, e.Now())
	}
	if e.Stats().QueueStall != 0 {
		t.Fatal("unexpected stall")
	}
}

func TestEngineDrainWaitsForAll(t *testing.T) {
	e := NewEngine(testModel(), 1)
	e.FlushAsync(1) // completes at 105
	e.FlushDrain(nil)
	if e.Now() != 105 {
		t.Fatalf("drain barrier: now=%v, want 105", e.Now())
	}
	if e.Stats().DrainStall != 100 {
		t.Fatalf("drain stall %v, want 100", e.Stats().DrainStall)
	}
}

func TestEngineDrainLines(t *testing.T) {
	e := NewEngine(testModel(), 1)
	e.FlushDrain([]trace.LineAddr{1, 2, 3})
	// Issues at 5 (done 105) and 10 (done 110); the third finds the
	// 2-deep queue full, waits until 105 and completes at 205; the drain
	// then waits for max(110, 205).
	if e.Now() != 205 {
		t.Fatalf("drain of 3: now=%v, want 205", e.Now())
	}
	st := e.Stats()
	if st.DrainFlushes != 3 || st.AsyncFlushes != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEngineInvalidationPenalty(t *testing.T) {
	e := NewEngine(testModel(), 1)
	e.OnStore(7, NoInstrument)
	e.FlushAsync(7)
	base := e.Now()
	e.OnStore(7, NoInstrument) // line was invalidated: +50
	if e.Now() != base+10+50 {
		t.Fatalf("re-store after clflush: %v, want %v", e.Now(), base+60)
	}
	// The penalty applies once: the store re-fetched the line.
	base = e.Now()
	e.OnStore(7, NoInstrument)
	if e.Now() != base+10 {
		t.Fatalf("second re-store: %v, want %v", e.Now(), base+10)
	}
	if e.Stats().InvalidationRe != 1 {
		t.Fatalf("InvalidationRe = %d", e.Stats().InvalidationRe)
	}
}

func TestEngineContentionScalesLatency(t *testing.T) {
	cm := testModel()
	e1 := NewEngine(cm, 1)
	e8 := NewEngine(cm, 8)
	e1.FlushDrain([]trace.LineAddr{1})
	e8.FlushDrain([]trace.LineAddr{1})
	if e8.Now() <= e1.Now() {
		t.Fatalf("8-thread drain (%v) not slower than 1-thread (%v)", e8.Now(), e1.Now())
	}
}

func TestContentionMonotone(t *testing.T) {
	cm := DefaultCostModel()
	prev := 0.0
	for _, th := range []int{1, 2, 4, 8, 16, 32} {
		f := cm.Contention(th)
		if f < 1 || f <= prev && th > 1 {
			t.Fatalf("contention(%d) = %v (prev %v)", th, f, prev)
		}
		prev = f
	}
	if cm.Contention(1) != 1 {
		t.Fatal("contention(1) != 1")
	}
}

func TestChargeAnalysis(t *testing.T) {
	e := NewEngine(testModel(), 1)
	e.ChargeAnalysis(1000)
	if e.Stats().AnalysisCycles != 1000*DefaultCostModel().AnalysisPerWrite {
		t.Fatalf("analysis cycles %v", e.Stats().AnalysisCycles)
	}
}

func TestEagerSlowdownShape(t *testing.T) {
	// The defining Table I behaviour: flushing every store must cost an
	// order of magnitude more than not flushing at all, because issue cost,
	// queue stalls and invalidation re-misses dominate ComputePerStore.
	cm := DefaultCostModel()
	n := 20000
	best := NewEngine(cm, 1)
	eager := NewEngine(cm, 1)
	for i := 0; i < n; i++ {
		line := trace.LineAddr(i % 64)
		best.OnStore(line, NoInstrument)
		eager.OnStore(line, NoInstrument)
		eager.FlushAsync(line)
	}
	eager.FlushDrain(nil)
	slowdown := eager.Now() / best.Now()
	if slowdown < 10 || slowdown > 40 {
		t.Fatalf("eager slowdown %.1f×, want within Table I's order (10–40×)", slowdown)
	}
}

func TestL1CacheBasic(t *testing.T) {
	c := NewL1Cache(8, 2) // 4 sets × 2 ways
	if miss := c.Access(0); !miss {
		t.Fatal("cold access hit")
	}
	if miss := c.Access(0); miss {
		t.Fatal("warm access missed")
	}
	// Lines 0, 4, 8 map to set 0 (4 sets): third distinct evicts LRU (0).
	c.Access(4)
	c.Access(8)
	if c.Resident(0) {
		t.Fatal("LRU line survived conflict evictions")
	}
	if !c.Resident(8) || !c.Resident(4) {
		t.Fatal("MRU lines evicted")
	}
}

func TestL1CacheInvalidate(t *testing.T) {
	c := NewL1Cache(8, 2)
	c.Access(1)
	c.Invalidate(1)
	if c.Resident(1) {
		t.Fatal("line resident after invalidate")
	}
	if miss := c.Access(1); !miss {
		t.Fatal("access after invalidate hit")
	}
	c.Invalidate(99) // unknown line: no-op
}

func TestL1MissRatio(t *testing.T) {
	c := NewL1Cache(64, 8)
	for pass := 0; pass < 10; pass++ {
		for l := 0; l < 16; l++ {
			c.Access(trace.LineAddr(l))
		}
	}
	// 16 compulsory misses out of 160 accesses.
	if got, want := c.MissRatio(), 0.1; got != want {
		t.Fatalf("miss ratio %v, want %v", got, want)
	}
}

func TestL1InvalidateRandom(t *testing.T) {
	c := NewL1Cache(16, 2)
	rng := testutil.Rand(t, 9)
	if c.InvalidateRandom(rng) {
		t.Fatal("invalidated from empty cache")
	}
	for l := 0; l < 16; l++ {
		c.Access(trace.LineAddr(l))
	}
	if !c.InvalidateRandom(rng) {
		t.Fatal("failed to invalidate from full cache")
	}
}

func TestL1NonPowerOfTwoRounded(t *testing.T) {
	c := NewL1Cache(24, 2) // 12 sets → rounded down to 8
	if len(c.sets) != 8 {
		t.Fatalf("sets = %d, want 8", len(c.sets))
	}
}

// Property: the engine clock never goes backwards, and flushing more lines
// never makes a drain finish earlier.
func TestQuickEngineMonotoneClock(t *testing.T) {
	f := func(seed int64) bool {
		rng := testutil.Rand(t, seed)
		e := NewEngine(testModel(), 1+rng.Intn(8))
		prev := 0.0
		for op := 0; op < 200; op++ {
			switch rng.Intn(4) {
			case 0:
				e.OnStore(trace.LineAddr(rng.Intn(32)), Instrumentation(rng.Intn(3)))
			case 1:
				e.FlushAsync(trace.LineAddr(rng.Intn(32)))
			case 2:
				lines := make([]trace.LineAddr, rng.Intn(5))
				for i := range lines {
					lines[i] = trace.LineAddr(rng.Intn(32))
				}
				e.FlushDrain(lines)
			case 3:
				e.OnFASEBoundary()
			}
			if e.Now() < prev {
				return false
			}
			prev = e.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: L1 occupancy never exceeds ways per set, and hit/miss counts
// always sum to accesses.
func TestQuickL1Invariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := testutil.Rand(t, seed)
		c := NewL1Cache(32, 1+rng.Intn(4))
		for op := 0; op < 500; op++ {
			switch rng.Intn(3) {
			case 0, 1:
				c.Access(trace.LineAddr(rng.Intn(128)))
			case 2:
				c.Invalidate(trace.LineAddr(rng.Intn(128)))
			}
		}
		for _, set := range c.sets {
			if len(set) > c.ways {
				return false
			}
			seen := map[trace.LineAddr]bool{}
			for _, l := range set {
				if seen[l] {
					return false // duplicate tag
				}
				seen[l] = true
			}
		}
		return c.Misses() <= c.Accesses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCLWBSkipsInvalidation(t *testing.T) {
	cm := testModel()
	cm.NoInvalidate = true // clwb semantics
	e := NewEngine(cm, 1)
	e.OnStore(7, NoInstrument)
	e.FlushAsync(7)
	base := e.Now()
	e.OnStore(7, NoInstrument) // line still valid: no re-miss penalty
	if e.Now() != base+10 {
		t.Fatalf("clwb re-store cost %v, want %v", e.Now()-base, 10.0)
	}
	if e.Stats().InvalidationRe != 0 {
		t.Fatalf("clwb recorded %d invalidation re-misses", e.Stats().InvalidationRe)
	}
}

func TestCLWBCheaperThanCLFLUSHOnRewrites(t *testing.T) {
	run := func(noInval bool) float64 {
		cm := DefaultCostModel()
		cm.NoInvalidate = noInval
		e := NewEngine(cm, 1)
		for i := 0; i < 5000; i++ {
			line := trace.LineAddr(i % 8)
			e.OnStore(line, NoInstrument)
			e.FlushAsync(line)
		}
		e.FlushDrain(nil)
		return e.Now()
	}
	clflush, clwb := run(false), run(true)
	if clflush <= clwb {
		t.Fatalf("clflush (%v) not more expensive than clwb (%v) on a rewriting workload", clflush, clwb)
	}
}
