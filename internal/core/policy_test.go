package core

import (
	"math/rand"
	"nvmcache/internal/testutil"
	"testing"
	"testing/quick"

	"nvmcache/internal/sampling"
	"nvmcache/internal/trace"
)

// buildTrace makes a single-thread trace from per-FASE line lists.
func buildTrace(fases ...[]trace.LineAddr) *trace.Trace {
	b := trace.NewBuilder(0)
	for _, f := range fases {
		b.Begin()
		for _, l := range f {
			b.Store(l)
		}
		b.End()
	}
	return trace.NewTrace(b.Finish())
}

// randomFASETrace builds a random trace for property tests.
func randomFASETrace(rng *rand.Rand, fases, maxWrites, vocab int) *trace.Trace {
	b := trace.NewBuilder(0)
	for f := 0; f < fases; f++ {
		b.Begin()
		n := 1 + rng.Intn(maxWrites)
		for w := 0; w < n; w++ {
			b.Store(trace.LineAddr(rng.Intn(vocab)))
		}
		b.End()
	}
	return trace.NewTrace(b.Finish())
}

func TestEagerFlushesEveryStore(t *testing.T) {
	tr := buildTrace([]trace.LineAddr{1, 1, 2}, []trace.LineAddr{1})
	if got := FlushRatio(Eager, DefaultConfig(), tr); got != 1.0 {
		t.Fatalf("ER flush ratio = %v, want 1", got)
	}
}

func TestLazyFlushesDistinctPerFASE(t *testing.T) {
	tr := buildTrace(
		[]trace.LineAddr{1, 1, 2, 1}, // 2 distinct
		[]trace.LineAddr{1, 3},       // 2 distinct
	)
	st := trace.ComputeStats(tr)
	want := float64(st.LAFlushes) / float64(st.TotalWrites)
	if got := FlushRatio(Lazy, DefaultConfig(), tr); got != want {
		t.Fatalf("LA flush ratio = %v, want %v", got, want)
	}
	if st.LAFlushes != 4 {
		t.Fatalf("LAFlushes = %d", st.LAFlushes)
	}
}

func TestLazyDrainsOnlyAtFASEEnd(t *testing.T) {
	rf := &RecordingSink{}
	p := NewPolicy(Lazy, DefaultConfig(), rf)
	p.FASEBegin()
	p.Store(1)
	p.Store(2)
	if len(rf.AsyncLines) != 0 || len(rf.DrainLines) != 0 {
		t.Fatal("lazy flushed mid-FASE")
	}
	p.FASEEnd()
	if len(rf.DrainLines) != 2 || len(rf.AsyncLines) != 0 {
		t.Fatalf("drain=%v async=%v", rf.DrainLines, rf.AsyncLines)
	}
}

func TestBestNeverFlushes(t *testing.T) {
	rng := testutil.Rand(t, 2)
	tr := randomFASETrace(rng, 10, 20, 8)
	if got := FlushRatio(Best, DefaultConfig(), tr); got != 0 {
		t.Fatalf("BEST flush ratio = %v", got)
	}
}

func TestAtlasCombinesWithinSlot(t *testing.T) {
	rf := &RecordingSink{}
	p := NewPolicy(AtlasTable, DefaultConfig(), rf)
	p.FASEBegin()
	p.Store(1)
	p.Store(1) // combined: same slot, same line
	p.Store(9) // 9 % 8 == 1: conflict, flushes 1
	p.FASEEnd()
	if len(rf.AsyncLines) != 1 || rf.AsyncLines[0] != 1 {
		t.Fatalf("async = %v, want [1]", rf.AsyncLines)
	}
	if len(rf.DrainLines) != 1 || rf.DrainLines[0] != 9 {
		t.Fatalf("drain = %v, want [9]", rf.DrainLines)
	}
}

func TestAtlasPersistentArrayRatio(t *testing.T) {
	// Section IV-B: a working set of W sequential lines cycled P times in
	// one FASE. Atlas's direct-mapped 8-entry table combines stores within
	// a line (16 stores per line at 4-byte ints) but conflicts across
	// passes, giving flush ratio ~1/16. The pattern below writes 16 stores
	// per line over 25 lines, 100 passes.
	b := trace.NewBuilder(0)
	b.Begin()
	const lines, passes, perLine = 25, 100, 16
	for p := 0; p < passes; p++ {
		for l := 0; l < lines; l++ {
			for s := 0; s < perLine; s++ {
				b.Store(trace.LineAddr(l))
			}
		}
	}
	b.End()
	tr := trace.NewTrace(b.Finish())
	got := FlushRatio(AtlasTable, DefaultConfig(), tr)
	want := 1.0 / 16.0
	if got < want*0.95 || got > want*1.1 {
		t.Fatalf("AT ratio on persistent-array pattern = %v, want ≈ %v", got, want)
	}
	// The software cache at capacity ≥ 25 combines across passes too:
	// 25 flushes out of 40000 stores.
	cfg := DefaultConfig()
	cfg.PresetSize = 26
	sc := FlushRatio(SoftCacheOffline, cfg, tr)
	scWant := float64(lines) / float64(lines*passes*perLine)
	if sc != scWant {
		t.Fatalf("SC ratio = %v, want %v", sc, scWant)
	}
}

func TestSoftCacheEvictionFlushesLRU(t *testing.T) {
	rf := &RecordingSink{}
	cfg := DefaultConfig()
	cfg.PresetSize = 2
	p := NewPolicy(SoftCacheOffline, cfg, rf)
	p.FASEBegin()
	p.Store(1)
	p.Store(2)
	p.Store(3) // evicts 1
	p.FASEEnd()
	if len(rf.AsyncLines) != 1 || rf.AsyncLines[0] != 1 {
		t.Fatalf("async = %v, want [1]", rf.AsyncLines)
	}
	if len(rf.DrainLines) != 2 {
		t.Fatalf("drain = %v", rf.DrainLines)
	}
}

func TestSoftCacheOnlineAdaptsToWorkingSet(t *testing.T) {
	// A cyclic working set of 26 lines. The default capacity 8 thrashes;
	// after the burst the controller must pick a capacity ≥ 26, after
	// which each pass costs zero evictions.
	b := trace.NewBuilder(0)
	b.Begin()
	for pass := 0; pass < 400; pass++ {
		for l := 0; l < 26; l++ {
			b.Store(trace.LineAddr(l))
		}
	}
	b.End()
	tr := trace.NewTrace(b.Finish())

	cfg := DefaultConfig()
	cfg.BurstLength = 26 * 40 // adapt early in the run
	cf := NewCountingSink(nil)
	p := NewPolicy(SoftCacheOnline, cfg, cf)
	RunSeq(p, tr.Threads[0])

	rep := p.(SizeReporter).AdaptReport()
	if !rep.Adapted {
		t.Fatal("controller did not adapt")
	}
	if rep.ChosenSize < 26 || rep.ChosenSize > 50 {
		t.Fatalf("chosen size %d, want within [26,50]", rep.ChosenSize)
	}
	if rep.InitialSize != 8 {
		t.Errorf("initial size %d, want default 8", rep.InitialSize)
	}
	// With the adapted size the total flush count must be far below the
	// thrashing baseline (which would be ~1 flush per store).
	total := cf.Stats().Total()
	stores := int64(tr.Threads[0].NumWrites())
	if total > stores/4 {
		t.Fatalf("flushes %d of %d stores: adaptation ineffective", total, stores)
	}
}

func TestSoftCacheOnlineShortTraceAdaptsAtFinish(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BurstLength = 1 << 20 // longer than the trace
	tr := buildTrace([]trace.LineAddr{1, 2, 1, 2, 1, 2})
	cf := NewCountingSink(nil)
	p := NewPolicy(SoftCacheOnline, cfg, cf)
	RunSeq(p, tr.Threads[0])
	rep := p.(SizeReporter).AdaptReport()
	if !rep.Adapted {
		t.Fatal("Finish did not trigger adaptation on short trace")
	}
	if rep.AnalyzedWrites != 6 {
		t.Errorf("AnalyzedWrites = %d", rep.AnalyzedWrites)
	}
}

// TestSoftCacheOnlineDropsSamplerAfterBurst: with infinite hibernation the
// one burst is the only one, so once the policy has adapted it holds no
// sampler (nor its burst buffer); a finite hibernation keeps it to wake.
func TestSoftCacheOnlineDropsSamplerAfterBurst(t *testing.T) {
	for _, tc := range []struct {
		name        string
		hibernation int64
		burst       int
		keep        bool
	}{
		{"infinite", sampling.Infinite, 64, false},
		{"zero-means-infinite", 0, 64, false},
		{"infinite-at-finish", sampling.Infinite, 1 << 20, false},
		{"finite", 29, 64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.BurstLength = tc.burst
			cfg.Hibernation = tc.hibernation
			rng := rand.New(rand.NewSource(7))
			tr := randomFASETrace(rng, 40, 12, 30)
			p := NewPolicy(SoftCacheOnline, cfg, NewCountingSink(nil)).(*softCachePolicy)
			RunSeq(p, tr.Threads[0])
			if !p.AdaptReport().Adapted {
				t.Fatalf("never adapted: %+v", p.AdaptReport())
			}
			if got := p.sampler != nil; got != tc.keep {
				t.Fatalf("sampler held after adapting = %v, want %v", got, tc.keep)
			}
		})
	}
}

func TestSoftCacheOfflinePresetSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PresetSize = 23
	p := NewPolicy(SoftCacheOffline, cfg, NewCountingSink(nil))
	rep := p.(SizeReporter).AdaptReport()
	if rep.ChosenSize != 23 || rep.Online {
		t.Fatalf("report = %+v", rep)
	}
	if p.(*softCachePolicy).cache.Capacity() != 23 {
		t.Fatal("preset size not applied")
	}
}

func TestPolicyKindStrings(t *testing.T) {
	want := map[PolicyKind]string{
		Eager: "ER", Lazy: "LA", AtlasTable: "AT",
		SoftCacheOnline: "SC", SoftCacheOffline: "SC-offline", Best: "BEST",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if len(AllPolicyKinds()) != 6 {
		t.Errorf("AllPolicyKinds: %v", AllPolicyKinds())
	}
}

// Write-back completeness (DESIGN.md invariant 5): for every sound policy,
// by the end of each FASE every line stored in that FASE has been flushed
// at least once since the FASE began.
func TestQuickWriteBackCompleteness(t *testing.T) {
	kinds := []PolicyKind{Eager, Lazy, AtlasTable, SoftCacheOnline, SoftCacheOffline}
	f := func(seed int64) bool {
		rng := testutil.Rand(t, seed)
		tr := randomFASETrace(rng, 1+rng.Intn(8), 30, 12)
		s := tr.Threads[0]
		for _, kind := range kinds {
			cfg := DefaultConfig()
			cfg.BurstLength = 16
			cfg.PresetSize = 1 + rng.Intn(6)
			rf := &RecordingSink{}
			p := NewPolicy(kind, cfg, rf)
			for i := 0; i < s.NumFASEs(); i++ {
				asyncMark, drainMark := len(rf.AsyncLines), len(rf.DrainLines)
				p.FASEBegin()
				stored := make(map[trace.LineAddr]struct{})
				for _, l := range s.FASE(i) {
					p.Store(l)
					stored[l] = struct{}{}
				}
				p.FASEEnd()
				flushed := make(map[trace.LineAddr]struct{})
				for _, l := range rf.AsyncLines[asyncMark:] {
					flushed[l] = struct{}{}
				}
				for _, l := range rf.DrainLines[drainMark:] {
					flushed[l] = struct{}{}
				}
				for l := range stored {
					if _, ok := flushed[l]; !ok {
						return false
					}
				}
			}
			p.Finish()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Flush-count ordering (DESIGN.md invariant 4): LA is the lower bound for
// every sound policy; ER is the upper bound.
func TestQuickPolicyFlushOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := testutil.Rand(t, seed)
		tr := randomFASETrace(rng, 1+rng.Intn(10), 40, 15)
		cfg := DefaultConfig()
		cfg.BurstLength = 64
		la := FlushRatio(Lazy, cfg, tr)
		er := FlushRatio(Eager, cfg, tr)
		at := FlushRatio(AtlasTable, cfg, tr)
		sc := FlushRatio(SoftCacheOnline, cfg, tr)
		sco := FlushRatio(SoftCacheOffline, cfg, tr)
		if er != 1 {
			return false
		}
		const eps = 1e-12
		for _, r := range []float64{at, sc, sco} {
			if r < la-eps || r > er+eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The LA lower bound equals the trace's per-FASE distinct-line count.
func TestQuickLazyEqualsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := testutil.Rand(t, seed)
		tr := randomFASETrace(rng, 1+rng.Intn(10), 40, 15)
		st := trace.ComputeStats(tr)
		want := float64(st.LAFlushes) / float64(st.TotalWrites)
		return FlushRatio(Lazy, DefaultConfig(), tr) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// recordingDevice is a minimal Flusher device capturing forwarded calls.
type recordingDevice struct {
	async []trace.LineAddr
	drain []trace.LineAddr
}

func (d *recordingDevice) FlushAsync(line trace.LineAddr) { d.async = append(d.async, line) }
func (d *recordingDevice) FlushDrain(lines []trace.LineAddr) {
	d.drain = append(d.drain, lines...)
}

func TestCountingSinkForwarding(t *testing.T) {
	inner := &recordingDevice{}
	outer := NewCountingSink(inner)
	outer.FlushLine(4)
	outer.Drain([]trace.LineAddr{5, 6})
	outer.Drain(nil)
	st := outer.Stats()
	if st.Async != 1 || st.Drained != 2 || st.Barriers != 1 || st.Total() != 3 {
		t.Fatalf("stats %+v", st)
	}
	if len(inner.async) != 1 || len(inner.drain) != 2 {
		t.Fatal("forwarding broken")
	}
	outer.Reset()
	if outer.Stats().Total() != 0 {
		t.Fatal("Reset failed")
	}
}
