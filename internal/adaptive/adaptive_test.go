package adaptive

import (
	"testing"
	"time"

	"nvmcache/internal/locality"
	"nvmcache/internal/trace"
)

// fakeShard is an in-memory Shard for controller tests.
type fakeShard struct {
	cap      int
	depth    int
	absorbDl time.Duration
	cnt      Counters
	resizes  int
}

func (f *fakeShard) CacheCapacity() int                { return f.cap }
func (f *fakeShard) SetCacheCapacity(c int)            { f.cap = c; f.resizes++ }
func (f *fakeShard) PipeDepth() int                    { return f.depth }
func (f *fakeShard) SetPipeDepth(d int)                { f.depth = d }
func (f *fakeShard) AbsorbDeadline() time.Duration     { return f.absorbDl }
func (f *fakeShard) SetAbsorbDeadline(d time.Duration) { f.absorbDl = d }
func (f *fakeShard) Counters() Counters                { return f.cnt }

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.BurstLength = 64
	cfg.Hibernation = 64
	return cfg
}

// feed runs writes lines through the tap as one FASE per line (worst-case
// renaming: every line distinct per FASE).
func feed(t *Tap, lines []uint64) {
	for _, l := range lines {
		t.TapStore(trace.LineAddr(l))
	}
	t.TapFASEEnd()
}

// hotLines emits n writes cycling over k distinct lines within one FASE,
// so reuse is high and the knee sits near k.
func hotLines(n, k int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i % k)
	}
	return out
}

func TestTapPublishesBursts(t *testing.T) {
	tap := NewTap(8, 8)
	if b := tap.TakeBurst(); b != nil {
		t.Fatalf("fresh tap returned burst %v", b)
	}
	feed(tap, hotLines(8, 4))
	b := tap.TakeBurst()
	if len(b) != 8 {
		t.Fatalf("burst length %d, want 8", len(b))
	}
	if tap.TakeBurst() != nil {
		t.Fatal("TakeBurst did not clear the slot")
	}
	if tap.SampledLines() != 8 || tap.Bursts() != 1 {
		t.Fatalf("gauges %d/%d, want 8/1", tap.SampledLines(), tap.Bursts())
	}
	// Hibernation: the next 8 writes are skipped, the 8 after recorded.
	feed(tap, hotLines(8, 4))
	if tap.TakeBurst() != nil {
		t.Fatal("burst completed during hibernation")
	}
	feed(tap, hotLines(8, 4))
	if b := tap.TakeBurst(); len(b) != 8 {
		t.Fatalf("re-sampled burst length %d, want 8", len(b))
	}
	if tap.Bursts() != 2 {
		t.Fatalf("bursts = %d, want 2", tap.Bursts())
	}
}

func TestControllerCapacityAndBudget(t *testing.T) {
	cfg := testConfig()
	cfg.MemBudget = 0
	taps := []*Tap{NewTap(cfg.BurstLength, cfg.Hibernation), NewTap(cfg.BurstLength, cfg.Hibernation)}
	shards := []Shard{
		&fakeShard{cap: 8},
		&fakeShard{cap: 8},
	}
	c := NewController(cfg, taps, shards)

	// Feed both taps a hot burst over 24 lines inside one FASE.
	for _, tap := range taps {
		feed(tap, hotLines(cfg.BurstLength, 24))
	}
	c.Tick()
	want := kneeOf(hotLines(cfg.BurstLength, 24), cfg)
	for i, sh := range shards {
		if got := sh.(*fakeShard).cap; got != want {
			t.Errorf("shard %d capacity = %d, want knee %d", i, got, want)
		}
	}
	if len(c.Decisions()) == 0 {
		t.Fatal("no decisions recorded")
	}
	last := c.Decisions()[len(c.Decisions())-1]
	if !last.Resized || last.Capacity != want {
		t.Errorf("last decision %+v, want resize to %d", last, want)
	}

	// Same locality under a tight budget: targets scale down ~proportionally.
	cfg2 := testConfig()
	cfg2.MemBudget = want // both shards share what one knee asks for
	taps2 := []*Tap{NewTap(cfg2.BurstLength, cfg2.Hibernation), NewTap(cfg2.BurstLength, cfg2.Hibernation)}
	shards2 := []Shard{
		&fakeShard{cap: 8},
		&fakeShard{cap: 8},
	}
	c2 := NewController(cfg2, taps2, shards2)
	for _, tap := range taps2 {
		feed(tap, hotLines(cfg2.BurstLength, 24))
	}
	c2.Tick()
	total := 0
	for _, sh := range shards2 {
		got := sh.(*fakeShard).cap
		if got > want/2+1 || got < 1 {
			t.Errorf("budgeted capacity = %d, want ≈%d", got, want/2)
		}
		total += got
	}
	if total > cfg2.MemBudget {
		t.Errorf("total capacity %d exceeds budget %d", total, cfg2.MemBudget)
	}
}

// kneeOf computes the expected knee for a renamed one-FASE burst.
func kneeOf(lines []uint64, cfg Config) int {
	ids := make(map[uint64]uint64, len(lines))
	renamed := make([]uint64, len(lines))
	next := uint64(0)
	for i, l := range lines {
		id, ok := ids[l]
		if !ok {
			id = next
			next++
			ids[l] = id
		}
		renamed[i] = id
	}
	return locality.SelectSize(locality.ProfileBurst(renamed, cfg.Knee.MaxSize).MRC, cfg.Knee)
}

func TestControllerHysteresisHoldsSmallChanges(t *testing.T) {
	cfg := testConfig()
	cfg.Hysteresis = 0.5
	tap := NewTap(cfg.BurstLength, cfg.Hibernation)
	sh := &fakeShard{cap: 8}
	c := NewController(cfg, []*Tap{tap}, []Shard{sh})
	feed(tap, hotLines(cfg.BurstLength, 24))
	c.Tick()
	first := sh.cap
	if first == 8 {
		t.Fatalf("no initial resize (cap still 8)")
	}
	// A slightly different burst whose knee moves < 50%: no new resize.
	feed(tap, hotLines(cfg.BurstLength, 26))
	c.Tick()
	if sh.resizes != 1 {
		t.Errorf("resizes = %d after sub-hysteresis change, want 1 (cap %d→%d)", sh.resizes, first, sh.cap)
	}
}

func TestControllerDepthAdaptation(t *testing.T) {
	cfg := testConfig()
	sh := &fakeShard{cap: 8, depth: 256}
	tap := NewTap(cfg.BurstLength, cfg.Hibernation)
	c := NewController(cfg, []*Tap{tap}, []Shard{sh})

	sh.cnt.PipeStalls = 3
	c.Tick()
	if sh.depth != 512 {
		t.Errorf("depth after stalls = %d, want 512", sh.depth)
	}
	// Four quiet ticks decay the depth by a quarter.
	for i := 0; i < 4; i++ {
		c.Tick()
	}
	if sh.depth != 384 {
		t.Errorf("depth after quiet streak = %d, want 384", sh.depth)
	}
	// A shard without a pipeline is untouched.
	sh2 := &fakeShard{cap: 8, depth: 0}
	c2 := NewController(cfg, []*Tap{NewTap(cfg.BurstLength, cfg.Hibernation)}, []Shard{sh2})
	c2.Tick()
	if sh2.depth != 0 {
		t.Errorf("pipeline-less shard got depth %d", sh2.depth)
	}
}

func TestControllerAbsorbAdaptation(t *testing.T) {
	cfg := testConfig()
	sh := &fakeShard{cap: 8, absorbDl: time.Millisecond}
	tap := NewTap(cfg.BurstLength, cfg.Hibernation)
	c := NewController(cfg, []*Tap{tap}, []Shard{sh})

	// Counter traffic that commits almost entirely unabsorbed: the
	// accumulator flushes before coalescing pays → the deadline doubles.
	sh.cnt.CounterOps += 100
	sh.cnt.Committed += 99
	sh.cnt.Absorbed += 1
	c.Tick()
	if sh.absorbDl != 2*time.Millisecond {
		t.Errorf("deadline after unabsorbed counters = %v, want 2ms", sh.absorbDl)
	}
	// Repeated low-ratio ticks saturate at MaxAbsorbDeadline.
	for i := 0; i < 6; i++ {
		sh.cnt.CounterOps += 100
		sh.cnt.Committed += 100
		c.Tick()
	}
	if sh.absorbDl != cfg.MaxAbsorbDeadline {
		t.Errorf("deadline after low-ratio streak = %v, want cap %v", sh.absorbDl, cfg.MaxAbsorbDeadline)
	}
	// Saturated absorption: most acked ops folded away → the deadline walks
	// back down to MinAbsorbDeadline.
	for i := 0; i < 8; i++ {
		sh.cnt.CounterOps += 100
		sh.cnt.Absorbed += 90
		sh.cnt.Committed += 10
		c.Tick()
	}
	if sh.absorbDl != cfg.MinAbsorbDeadline {
		t.Errorf("deadline after saturated absorption = %v, want floor %v", sh.absorbDl, cfg.MinAbsorbDeadline)
	}
	last := c.Decisions()[len(c.Decisions())-1]
	if last.AbsorbDeadline != cfg.MinAbsorbDeadline {
		t.Errorf("decision AbsorbDeadline = %v, want %v", last.AbsorbDeadline, cfg.MinAbsorbDeadline)
	}

	// Without counter traffic a low ratio must not lengthen the deadline
	// (pure PUT/DEL load gains nothing from parking time).
	sh2 := &fakeShard{cap: 8, absorbDl: time.Millisecond}
	c2 := NewController(cfg, []*Tap{NewTap(cfg.BurstLength, cfg.Hibernation)}, []Shard{sh2})
	sh2.cnt.Committed += 100
	c2.Tick()
	if sh2.absorbDl != time.Millisecond {
		t.Errorf("counter-free shard's deadline moved to %v", sh2.absorbDl)
	}
	// An absorption-off shard (deadline 0) is untouched.
	sh3 := &fakeShard{cap: 8}
	c3 := NewController(cfg, []*Tap{NewTap(cfg.BurstLength, cfg.Hibernation)}, []Shard{sh3})
	sh3.cnt.CounterOps += 100
	sh3.cnt.Committed += 100
	c3.Tick()
	if sh3.absorbDl != 0 {
		t.Errorf("absorption-off shard got deadline %v", sh3.absorbDl)
	}
}

func TestControllerStartStopIdempotent(t *testing.T) {
	cfg := testConfig()
	cfg.Interval = time.Millisecond
	sh := &fakeShard{cap: 8}
	c := NewController(cfg, []*Tap{NewTap(64, 64)}, []Shard{sh})
	c.Start()
	c.Start()
	time.Sleep(5 * time.Millisecond)
	c.Stop()
	c.Stop()
}

func TestGauges(t *testing.T) {
	cfg := testConfig()
	tap := NewTap(cfg.BurstLength, cfg.Hibernation)
	sh := &fakeShard{cap: 8}
	c := NewController(cfg, []*Tap{tap}, []Shard{sh})
	feed(tap, hotLines(cfg.BurstLength, 24))
	c.Tick()
	g := c.Gauges(0)
	if g.Capacity != int64(sh.cap) {
		t.Errorf("gauge capacity %d, want %d", g.Capacity, sh.cap)
	}
	if g.Resizes != 1 || g.Sampled != int64(cfg.BurstLength) || g.LastSeq == 0 {
		t.Errorf("gauges %+v unexpected", g)
	}
}

// TestTapStoreAllocs extends the zero-alloc assertion pattern from
// wcache_test.go to the sampling tap: while the sampler hibernates the
// hot-path TapStore must not allocate at all, and while collecting it must
// not allocate beyond the amortized burst buffer/rename map (asserted over
// lines already renamed, where the per-store cost is an append within
// capacity).
func TestTapStoreAllocs(t *testing.T) {
	tap := NewTap(1<<20, 1<<30)
	// Warm the rename map and burst buffer.
	for i := 0; i < 1024; i++ {
		tap.TapStore(trace.LineAddr(i % 64))
	}
	if avg := testing.AllocsPerRun(1000, func() {
		tap.TapStore(trace.LineAddr(7))
	}); avg != 0 {
		t.Errorf("collecting TapStore allocates %.1f/op over warm lines, want 0", avg)
	}

	// A hibernating tap: complete the burst, then measure the sleep path.
	tap2 := NewTap(8, 1<<30)
	for i := 0; i < 8; i++ {
		tap2.TapStore(trace.LineAddr(i))
	}
	tap2.TakeBurst()
	if avg := testing.AllocsPerRun(1000, func() {
		tap2.TapStore(trace.LineAddr(3))
	}); avg != 0 {
		t.Errorf("hibernating TapStore allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		tap2.TapFASEEnd()
	}); avg != 0 {
		t.Errorf("hibernating TapFASEEnd allocates %.1f/op, want 0", avg)
	}
}

// BenchmarkTapStoreSleeping measures the near-zero-cost fast path a
// hibernating tap adds to the store hot path.
func BenchmarkTapStoreSleeping(b *testing.B) {
	tap := NewTap(8, 1<<40)
	for i := 0; i < 8; i++ {
		tap.TapStore(trace.LineAddr(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tap.TapStore(trace.LineAddr(i))
	}
}
