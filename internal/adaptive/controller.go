package adaptive

import (
	"sync"
	"time"

	"nvmcache/internal/locality"
)

// Config tunes the control plane. The zero value is disabled; use
// DefaultConfig as the base and WithDefaults to fill unset fields.
type Config struct {
	// Enabled turns the controller (and the per-shard sampling taps) on.
	Enabled bool
	// Interval is the decision period.
	Interval time.Duration
	// MemBudget caps the *sum* of write-cache capacities across shards, in
	// lines; when the per-shard knee targets exceed it they are scaled down
	// proportionally. 0 leaves each shard at its own knee (each still
	// bounded by Knee.MaxSize).
	MemBudget int
	// Knee configures the per-shard capacity pick from the MRC.
	Knee locality.KneeConfig
	// BurstLength is the sampler burst per shard, in line writes.
	BurstLength int
	// Hibernation is how many line writes each sampler skips between
	// bursts — the periodic re-sampling that lets the loop track phase
	// changes (the paper's one-shot setting is the offline special case).
	Hibernation int64
	// Alpha is the EWMA weight of the newest burst when blending profiles
	// (hysteresis input; 0.5 reacts within ~2 bursts).
	Alpha float64
	// Hysteresis is the minimum relative capacity change worth a resize:
	// |target−current| ≥ Hysteresis·current, so the cache is not churned
	// by sampling noise.
	Hysteresis float64

	// MinAbsorbDeadline/MaxAbsorbDeadline bound the absorption-deadline
	// adaptation: a low absorbed/committed ratio under counter traffic means
	// parked ops commit before enough coalescing accrues (double the
	// deadline, admitting more ack latency for more absorption); a high ratio means absorption saturates and the
	// deadline is shortened back toward MinAbsorbDeadline to cut deferred-ack
	// latency. MaxAbsorbDeadline 0 disables the rule. Shards with absorption
	// off are unaffected.
	MinAbsorbDeadline, MaxAbsorbDeadline time.Duration
}

// DefaultConfig returns an enabled configuration with serving-scale
// constants: 100ms decisions, 4Ki-write bursts re-sampled after 16Ki
// skipped writes, the paper's knee rule, 25% resize hysteresis.
func DefaultConfig() Config {
	return Config{
		Enabled:     true,
		Interval:    100 * time.Millisecond,
		Knee:        locality.DefaultKneeConfig(),
		BurstLength: 4096,
		Hibernation: 16384,
		Alpha:       0.5,
		Hysteresis:  0.25,

		MinAbsorbDeadline: 500 * time.Microsecond,
		MaxAbsorbDeadline: 8 * time.Millisecond,
	}
}

// WithDefaults fills unset fields from DefaultConfig, preserving Enabled
// and any explicitly set value.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.Interval <= 0 {
		c.Interval = d.Interval
	}
	if c.Knee.MaxSize <= 0 {
		c.Knee = d.Knee
	}
	if c.BurstLength <= 0 {
		c.BurstLength = d.BurstLength
	}
	if c.Hibernation == 0 {
		c.Hibernation = d.Hibernation
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = d.Alpha
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = d.Hysteresis
	}
	if c.MinAbsorbDeadline <= 0 {
		c.MinAbsorbDeadline = d.MinAbsorbDeadline
	}
	return c
}

// Shard is the control surface one engine shard exposes to the controller.
// All methods must be safe to call from the controller goroutine while the
// shard keeps serving: setters publish targets the shard applies at its
// next safe point (the capacity at the next FASE end), so getters may
// briefly lag a setter.
type Shard interface {
	CacheCapacity() int
	SetCacheCapacity(capacity int)
	// AbsorbDeadline returns how long a counter op may park in the shard's
	// absorption accumulator before its net delta commits, or 0 when
	// absorption is off (SetAbsorbDeadline is then a no-op).
	AbsorbDeadline() time.Duration
	SetAbsorbDeadline(d time.Duration)
	Counters() Counters
}

// Counters are the monotone observables the absorption rule diffs between
// ticks.
type Counters struct {
	// Absorbed/Committed split the acked mutations by whether a physical
	// write of their own reached the FASE; their ratio over a tick is the
	// absorption rule's input. CounterOps (incrs + decrs) gates the rule's
	// lengthening side: without counter traffic a longer park deadline
	// cannot buy anything.
	Absorbed, Committed, CounterOps uint64
}

// Decision is one per-shard control action, recorded for the capacity
// trajectory the adaptive experiment reports.
type Decision struct {
	Seq   uint64
	Shard int
	// Capacity is the capacity requested by this decision (or confirmed,
	// when no resize was worth it); Target is the raw knee pick before the
	// memory budget and hysteresis.
	Capacity, Target int
	// Miss is the blended profile's predicted miss ratio at Capacity;
	// WorkingSet and Hotness are the profile scalars.
	Miss, WorkingSet, Hotness float64
	AbsorbDeadline            time.Duration
	// Resized reports whether the decision actually requested a resize.
	Resized bool
}

// ShardGauges is one shard's control-plane instrumentation, surfaced as
// the adaptive_* STATS keys.
type ShardGauges struct {
	// Capacity is the cache capacity currently in effect.
	Capacity int64
	// Resizes counts capacity retargets requested so far.
	Resizes int64
	// Sampled is the total line writes recorded into completed bursts.
	Sampled int64
	// LastSeq is the sequence number of the shard's newest decision.
	LastSeq int64
}

// maxDecisions bounds the retained trajectory (FIFO).
const maxDecisions = 4096

// Controller drives the loop: every Interval it collects each tap's
// completed burst (if any), folds it into the shard's EWMA profile, picks
// a capacity (knee rule → memory budget → hysteresis) and retunes the
// shard's absorption deadline from the counter deltas.
type Controller struct {
	cfg    Config
	taps   []*Tap
	shards []Shard

	accums []*locality.Accumulator
	want   []int // last requested capacity (the shard may lag one FASE)
	prev   []Counters

	mu        sync.Mutex
	running   bool
	stop      chan struct{}
	done      chan struct{}
	seq       uint64
	resizes   []int64
	lastSeq   []int64
	decisions []Decision
}

// NewController wires taps and shards (index-aligned; one tap per shard).
// cfg is normalized with WithDefaults.
func NewController(cfg Config, taps []*Tap, shards []Shard) *Controller {
	cfg = cfg.WithDefaults()
	n := len(shards)
	c := &Controller{
		cfg:     cfg,
		taps:    taps,
		shards:  shards,
		accums:  make([]*locality.Accumulator, n),
		want:    make([]int, n),
		prev:    make([]Counters, n),
		resizes: make([]int64, n),
		lastSeq: make([]int64, n),
	}
	for i := range c.accums {
		c.accums[i] = locality.NewAccumulator(cfg.Alpha, cfg.Knee.MaxSize)
		c.want[i] = shards[i].CacheCapacity()
		c.prev[i] = shards[i].Counters()
	}
	return c
}

// Start launches the periodic loop. Idempotent.
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return
	}
	c.running = true
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.loop(c.stop, c.done)
}

// Stop halts the loop and waits for it to exit. Idempotent; the shards are
// left at their last requested configuration.
func (c *Controller) Stop() {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return
	}
	c.running = false
	stop, done := c.stop, c.done
	c.mu.Unlock()
	close(stop)
	<-done
}

func (c *Controller) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tk := time.NewTicker(c.cfg.Interval)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
			c.Tick()
		}
	}
}

// Tick runs one decision pass. Exported so tests and deterministic
// experiments can step the controller without the timer.
func (c *Controller) Tick() {
	n := len(c.shards)
	targets := make([]int, n)
	profiles := make([]*locality.Profile, n)
	fresh := make([]bool, n)
	for i, tap := range c.taps {
		if b := tap.TakeBurst(); len(b) > 0 {
			profiles[i] = c.accums[i].Add(b)
			fresh[i] = true
		} else {
			profiles[i] = c.accums[i].Profile()
		}
		if profiles[i] != nil {
			targets[i] = locality.SelectSize(profiles[i].MRC, c.cfg.Knee)
		} else {
			targets[i] = c.want[i] // no evidence yet: hold
		}
	}
	raw := append([]int(nil), targets...)
	// Global memory budget: when the knees ask for more than the budget,
	// every shard gives up proportionally (waterfilling would starve cold
	// shards entirely, which forfeits their combinable writes).
	if b := c.cfg.MemBudget; b > 0 {
		sum := 0
		for _, t := range targets {
			sum += t
		}
		if sum > b {
			for i := range targets {
				if t := targets[i] * b / sum; t >= 1 {
					targets[i] = t
				} else {
					targets[i] = 1
				}
			}
		}
	}
	for i, sh := range c.shards {
		resized := false
		if profiles[i] != nil {
			delta := targets[i] - c.want[i]
			if delta < 0 {
				delta = -delta
			}
			if delta > 0 && float64(delta) >= c.cfg.Hysteresis*float64(c.want[i]) {
				c.want[i] = targets[i]
				sh.SetCacheCapacity(targets[i])
				resized = true
			}
		}
		absorbChanged := c.adaptAbsorb(i, sh)
		if fresh[i] || resized || absorbChanged {
			c.record(i, sh, profiles[i], raw[i], resized)
		}
	}
}

// adaptAbsorb retargets shard i's absorption deadline from the tick's
// absorbed/committed split: counter traffic that commits mostly
// unabsorbed means the accumulator is flushed before coalescing pays —
// double the park deadline, trading bounded ack latency for fewer FASEs —
// while a saturated absorption ratio walks the deadline back down so
// deferred acks stay as fresh as the load allows.
func (c *Controller) adaptAbsorb(i int, sh Shard) bool {
	if c.cfg.MaxAbsorbDeadline <= 0 {
		return false
	}
	dl := sh.AbsorbDeadline()
	if dl <= 0 {
		return false
	}
	cnt := sh.Counters()
	dAbs := cnt.Absorbed - c.prev[i].Absorbed
	dCom := cnt.Committed - c.prev[i].Committed
	dCtr := cnt.CounterOps - c.prev[i].CounterOps
	c.prev[i].Absorbed, c.prev[i].Committed, c.prev[i].CounterOps =
		cnt.Absorbed, cnt.Committed, cnt.CounterOps
	total := dAbs + dCom
	if total == 0 {
		return false
	}
	ratio := float64(dAbs) / float64(total)
	nd := dl
	switch {
	case ratio < 0.125 && dCtr > 0:
		if nd = dl * 2; nd > c.cfg.MaxAbsorbDeadline {
			nd = c.cfg.MaxAbsorbDeadline
		}
	case ratio > 0.5:
		if nd = dl / 2; nd < c.cfg.MinAbsorbDeadline {
			nd = c.cfg.MinAbsorbDeadline
		}
	}
	if nd == dl {
		return false
	}
	sh.SetAbsorbDeadline(nd)
	return true
}

// record appends one trajectory entry and updates the gauges.
func (c *Controller) record(i int, sh Shard, p *locality.Profile, rawTarget int, resized bool) {
	d := Decision{
		Shard:          i,
		Capacity:       c.want[i],
		Target:         rawTarget,
		AbsorbDeadline: sh.AbsorbDeadline(),
		Resized:        resized,
	}
	if p != nil {
		d.Miss = p.MRC.At(c.want[i])
		d.WorkingSet = p.WorkingSet
		d.Hotness = p.Hotness
	}
	c.mu.Lock()
	c.seq++
	d.Seq = c.seq
	c.lastSeq[i] = int64(c.seq)
	if resized {
		c.resizes[i]++
	}
	c.decisions = append(c.decisions, d)
	if len(c.decisions) > maxDecisions {
		c.decisions = c.decisions[len(c.decisions)-maxDecisions:]
	}
	c.mu.Unlock()
}

// Gauges snapshots shard i's control-plane instrumentation.
func (c *Controller) Gauges(i int) ShardGauges {
	c.mu.Lock()
	g := ShardGauges{Resizes: c.resizes[i], LastSeq: c.lastSeq[i]}
	c.mu.Unlock()
	g.Capacity = int64(c.shards[i].CacheCapacity())
	g.Sampled = c.taps[i].SampledLines()
	return g
}

// Decisions returns a copy of the retained decision trajectory, oldest
// first.
func (c *Controller) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.decisions...)
}
