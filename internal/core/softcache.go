package core

import (
	"sync/atomic"

	"nvmcache/internal/locality"
	"nvmcache/internal/sampling"
	"nvmcache/internal/trace"
)

// softCachePolicy is the paper's contribution: the fully associative LRU
// write-combining software cache (SC / SC-offline). Stores are buffered at
// line-address granularity; an eviction triggers an asynchronous flush that
// overlaps with computation; FASE end drains the whole cache, which bounds
// the stall by the cache capacity (hence the 50-line maximum).
//
// In the online configuration the policy starts at the default capacity
// (8), samples one burst of writes, computes the MRC with the linear-time
// reuse algorithm, and resizes to the knee (Section III-C). In the offline
// configuration the capacity is fixed to cfg.PresetSize (or the default
// when unset) and no sampling happens.
type softCachePolicy struct {
	sink   FlushSink
	cache  *WriteCache
	cfg    Config
	online bool

	sampler *sampling.Sampler
	report  AdaptReport

	// capacity mirrors cache.Capacity() for concurrent readers; pending is
	// an externally requested capacity (0 = none), published by any
	// goroutine via RequestCapacity and consumed by the owning thread at
	// FASE end.
	capacity atomic.Int64
	pending  atomic.Int64
}

// AdaptReport describes what the adaptive controller did during a run; the
// harness uses it for the Section IV-G analyses (chosen sizes, online
// overhead).
type AdaptReport struct {
	// Online is true for SC, false for SC-offline / preset runs.
	Online bool
	// Adapted is true once the burst completed and the capacity was reset.
	Adapted bool
	// InitialSize is the capacity at thread start.
	InitialSize int
	// ChosenSize is the capacity selected from the MRC (equals InitialSize
	// until adaptation happens).
	ChosenSize int
	// AnalyzedWrites counts the sampled writes; cost models charge online
	// MRC analysis time proportional to it.
	AnalyzedWrites int64
	// Adaptations counts completed burst → resize cycles (1 with the
	// paper's infinite hibernation; more under periodic re-sampling).
	Adaptations int
}

// SizeReporter is implemented by policies that choose a cache capacity at
// run time or carry one chosen offline.
type SizeReporter interface {
	AdaptReport() AdaptReport
}

func newSoftCachePolicy(cfg Config, sink FlushSink, online bool) *softCachePolicy {
	size := cfg.Knee.DefaultSize
	if size <= 0 {
		size = locality.DefaultKneeConfig().DefaultSize
	}
	if !online && cfg.PresetSize > 0 {
		size = cfg.PresetSize
	}
	p := &softCachePolicy{
		sink:   sink,
		cache:  NewWriteCache(size),
		cfg:    cfg,
		online: online,
		report: AdaptReport{Online: online, InitialSize: size, ChosenSize: size},
	}
	p.capacity.Store(int64(size))
	if online {
		scfg := sampling.DefaultConfig(cfg.BurstLength)
		if cfg.Hibernation != 0 {
			scfg.Hibernation = cfg.Hibernation
		}
		p.sampler = sampling.New(scfg)
	}
	return p
}

func (p *softCachePolicy) Kind() PolicyKind {
	if p.online {
		return SoftCacheOnline
	}
	return SoftCacheOffline
}

func (p *softCachePolicy) Store(line trace.LineAddr) {
	if p.sampler != nil {
		if done := p.sampler.RecordStore(line); done {
			p.adapt()
		}
	}
	if _, evicted, has := p.cache.Access(line); has {
		p.sink.FlushLine(evicted)
	}
}

// StoreRun is one Access for the whole run: after the first store the line
// is the cache's most recently used, and a repeat of index 0 changes no
// state. Only the sampler counts words (see countsWords).
func (p *softCachePolicy) StoreRun(line trace.LineAddr, n int) {
	if !p.countsWords() {
		n = 1
	}
	for ; n > 0; n-- {
		p.Store(line)
	}
}

// countsWords reports whether each word of a run must reach Store: while
// the sampler collects, or when a finite hibernation will wake it, so that
// adapt fires at the exact word a Store loop would have fired it.
func (p *softCachePolicy) countsWords() bool {
	return p.sampler != nil && (p.sampler.Collecting() || p.cfg.Hibernation > 0)
}

func (p *softCachePolicy) FASEBegin() {}

func (p *softCachePolicy) FASEEnd() {
	// Apply an externally requested resize first, while the cache still
	// holds the FASE's lines: a shrink genuinely evicts here, and the
	// evicted lines' FlushLine write-backs are covered by the Drain barrier
	// below, so the persistence guarantee is unchanged. Load-then-swap
	// keeps the common case (no request) a read-only atomic.
	if p.pending.Load() != 0 {
		if c := p.pending.Swap(0); c != 0 {
			p.applyCapacity(int(c))
		}
	}
	if p.sampler != nil {
		p.sampler.FASEEnd()
	}
	lines := p.cache.Drain()
	if len(lines) == 0 {
		return
	}
	p.sink.Drain(lines)
}

func (p *softCachePolicy) Finish() {
	p.FASEEnd()
	// With infinite hibernation the paper analyzes one burst; if the trace
	// was shorter than the burst, adapt on what was collected so short
	// runs still pick a size (and tests can observe the selection).
	if p.sampler != nil && !p.report.Adapted && p.sampler.Analyzed() > 0 {
		p.adapt()
	}
}

// adapt computes the MRC from the sampled burst and resizes the cache to
// the selected knee. Evictions forced by a shrink are flushed
// asynchronously, exactly like capacity evictions.
func (p *softCachePolicy) adapt() {
	burst := p.sampler.Burst()
	p.report.AnalyzedWrites += int64(len(burst))
	if len(burst) == 0 {
		return
	}
	mrc := locality.ProfileBurst(burst, p.cfg.Knee.MaxSize).MRC
	size := locality.SelectSize(mrc, p.cfg.Knee)
	p.applyCapacity(size)
	p.report.Adapted = true
	p.report.Adaptations++
	p.report.ChosenSize = size
}

// applyCapacity resizes on the owning thread, flushing shrink evictions
// like capacity evictions. Runs only on the mutator.
func (p *softCachePolicy) applyCapacity(c int) {
	if c < 1 {
		c = 1
	}
	if c == p.cache.Capacity() {
		return
	}
	for _, line := range p.cache.Resize(c) {
		p.sink.FlushLine(line)
	}
	p.capacity.Store(int64(c))
}

// AdaptReport implements SizeReporter.
func (p *softCachePolicy) AdaptReport() AdaptReport { return p.report }

// RequestCapacity implements CapacityControlled: publish a capacity target
// the owning thread applies at its next outermost FASE end. Safe from any
// goroutine. Requests coalesce — only the newest unapplied one wins.
func (p *softCachePolicy) RequestCapacity(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	p.pending.Store(int64(capacity))
}

// AdoptCapacity implements CapacityControlled: take over a capacity chosen
// before a restart and stop sampling. InitialSize and ChosenSize both
// report it; Adapted and AnalyzedWrites stay zero, because this
// incarnation analyzed nothing.
func (p *softCachePolicy) AdoptCapacity(capacity int) {
	p.applyCapacity(capacity)
	p.sampler = nil
	p.report.InitialSize = p.cache.Capacity()
	p.report.ChosenSize = p.cache.Capacity()
}

// CacheSize implements CapacityControlled: the capacity currently in
// effect. Safe for concurrent readers.
func (p *softCachePolicy) CacheSize() int { return int(p.capacity.Load()) }
