package core

import (
	"fmt"

	"nvmcache/internal/locality"
	"nvmcache/internal/sampling"
	"nvmcache/internal/trace"
)

// Flusher is the raw flush device: implementations decide what a flush
// costs (internal/hwsim charges cycles and models overlap). Policies do
// not use it directly — they talk to a FlushSink; CountingSink bridges a
// sink onto a device.
type Flusher interface {
	// FlushAsync writes one line back without waiting; the transfer may
	// overlap with subsequent computation (a mid-FASE eviction).
	FlushAsync(line trace.LineAddr)
	// FlushDrain writes the given lines back and then waits until they and
	// every previously issued asynchronous flush are durable (the FASE-end
	// drain). lines may be empty, in which case it acts as a barrier.
	FlushDrain(lines []trace.LineAddr)
}

// BatchFlusher is the batched extension of Flusher: issue a whole batch of
// asynchronous write-backs in one call (hwsim retires it in one scheduling
// pass). Semantics equal len(lines) FlushAsync calls.
type BatchFlusher interface {
	FlushBatch(lines []trace.LineAddr)
}

// FlushSink is what a persistence policy is wired to: the seam between
// policy logic (what to flush, when) and flush execution (what it costs,
// where the bytes go). Implementations: CountingSink (pure counting, or
// counting in front of a Flusher device), pmem.Sink (actually persists
// line contents), hwsim.Sink (replays flushes through the cycle-level
// cache model). A sink belongs to one thread's policy; only Stats must
// tolerate concurrent readers.
type FlushSink interface {
	// FlushLine writes one line back without waiting; the transfer may
	// overlap with subsequent computation (a mid-FASE eviction).
	FlushLine(line trace.LineAddr)
	// Drain writes the given lines back and then waits until they and every
	// previously issued asynchronous flush are durable (the FASE-end
	// drain). lines may be empty, in which case it acts as a barrier.
	Drain(lines []trace.LineAddr)
	// Stats reports cumulative flush counts. It may be called from other
	// goroutines while the owning thread is storing; a sink may publish
	// its FlushLine count only at the next Drain, so such a caller can lag
	// by the FASE in progress. After a Drain, on the owner, it is exact.
	Stats() FlushStats
}

// StoreTap observes one thread's persistent-store line stream from outside
// the policy: the seam the adaptive control plane's burst sampler hangs
// off. The runtime calls TapStore for every line a thread stores — on the
// store hot path, so implementations must be allocation-free and near-free
// while their sampler hibernates — and TapFASEEnd at every outermost FASE
// close (the renaming boundary of Section III-B). A tap belongs to one
// thread; the runtime never calls it concurrently.
type StoreTap interface {
	TapStore(line trace.LineAddr)
	TapFASEEnd()
}

// CapacityControlled is implemented by policies whose software-cache
// capacity an external controller can retarget while the owning thread
// keeps running. RequestCapacity is safe from any goroutine: the request
// is a single atomic publication, and the resize itself runs on the owning
// thread at its next outermost FASE end, just before the drain — so the
// lines a shrink evicts flow through the normal FlushLine path and remain
// covered by the FASE's persistence guarantee (and by fault-injection
// sites). CacheSize reports the capacity currently in effect and is safe
// for concurrent readers; it lags a pending request by at most one FASE.
// AdoptCapacity is the restart path: called on the owning thread before its
// first store, it starts the cache at a capacity an earlier incarnation of
// the thread already chose and drops the online sampler — the paper's
// infinite-hibernation rule (one burst, one MRC analysis) carried across a
// recovery.
type CapacityControlled interface {
	RequestCapacity(capacity int)
	CacheSize() int
	AdoptCapacity(capacity int)
}

// PolicyKind names the six persistence techniques of Section IV-A.
type PolicyKind int

const (
	// Eager (ER) flushes every persistent store immediately.
	Eager PolicyKind = iota
	// Lazy (LA) flushes each FASE's distinct dirty lines only at FASE end.
	Lazy
	// AtlasTable (AT) is the state of the art: Atlas's fixed-size
	// direct-mapped address table (8 entries).
	AtlasTable
	// SoftCacheOnline (SC) is the adaptive software cache: default size 8,
	// one sampled burst, MRC analysis, knee-based resize at run time.
	SoftCacheOnline
	// SoftCacheOffline (SC-offline) is the software cache with the best
	// fixed size chosen from a whole-trace MRC before the run.
	SoftCacheOffline
	// Best (BEST) performs no flushes at all: the (invalid) upper bound on
	// any caching scheme.
	Best
)

// String returns the paper's abbreviation for the policy.
func (k PolicyKind) String() string {
	switch k {
	case Eager:
		return "ER"
	case Lazy:
		return "LA"
	case AtlasTable:
		return "AT"
	case SoftCacheOnline:
		return "SC"
	case SoftCacheOffline:
		return "SC-offline"
	case Best:
		return "BEST"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// AllPolicyKinds lists every policy in the paper's presentation order.
func AllPolicyKinds() []PolicyKind {
	return []PolicyKind{Eager, Lazy, AtlasTable, SoftCacheOnline, SoftCacheOffline, Best}
}

// Policy is one thread's persistence engine. Exactly one Policy exists per
// thread (the software cache is per thread and lock-free by design,
// Section II-B); none of the implementations are safe for concurrent use.
type Policy interface {
	// Kind identifies the technique.
	Kind() PolicyKind
	// Store records a persistent store to the line (inside a FASE).
	Store(line trace.LineAddr)
	// StoreRun records n ≥ 1 consecutive stores to one line: the same
	// state, flushes and reports as n Store calls, in fewer steps (a page
	// copy announces one run per destination line).
	StoreRun(line trace.LineAddr, n int)
	// FASEBegin marks the start of an outermost failure-atomic section.
	FASEBegin()
	// FASEEnd marks the end of an outermost section. On return, every line
	// stored during the FASE must have been handed to the FlushSink and
	// drained — the persistence guarantee — except for Best, which is
	// deliberately unsound.
	FASEEnd()
	// Finish releases resources at thread exit and drains any residue.
	Finish()
}

// Config carries the tuning constants shared by the policies.
type Config struct {
	// Knee configures adaptive size selection; DefaultSize doubles as the
	// initial software cache capacity (paper: 8, max 50).
	Knee locality.KneeConfig
	// AtlasTableSize is AT's direct-mapped table size (paper: 8).
	AtlasTableSize int
	// BurstLength is the online sampler's burst, in writes (paper: 64M at
	// full scale; callers pass a value proportional to their trace size).
	BurstLength int
	// Hibernation is the number of writes skipped between sampling bursts.
	// The paper sets it to infinite ("it is sufficient to analyze MRC just
	// once"), the default here (sampling.Infinite = -1); a positive value
	// re-samples periodically, letting the cache re-size when the
	// program's write locality shifts between phases.
	Hibernation int64
	// PresetSize, when positive, fixes the software cache capacity and
	// disables adaptation: the SC-offline configuration, and also the
	// "preset" runs used to measure online-selection overhead (Fig. 8).
	PresetSize int
}

// DefaultConfig returns the paper's constants with a burst length suitable
// for this repository's default workload scale.
func DefaultConfig() Config {
	return Config{
		Knee:           locality.DefaultKneeConfig(),
		AtlasTableSize: 8,
		BurstLength:    1 << 18,
		Hibernation:    sampling.Infinite,
	}
}

// NewPolicy constructs a policy of the given kind over the flush sink.
func NewPolicy(kind PolicyKind, cfg Config, sink FlushSink) Policy {
	switch kind {
	case Eager:
		return &eagerPolicy{sink: sink}
	case Lazy:
		return newLazyPolicy(sink)
	case AtlasTable:
		return newAtlasPolicy(cfg, sink)
	case SoftCacheOnline:
		return newSoftCachePolicy(cfg, sink, true)
	case SoftCacheOffline:
		return newSoftCachePolicy(cfg, sink, false)
	case Best:
		return &bestPolicy{}
	default:
		panic(fmt.Sprintf("core: unknown policy kind %d", kind))
	}
}

// eagerPolicy flushes at every store. Cheap per event, catastrophic in
// aggregate: Table I's 22× average slowdown.
type eagerPolicy struct {
	sink FlushSink
}

func (p *eagerPolicy) Kind() PolicyKind { return Eager }

func (p *eagerPolicy) Store(line trace.LineAddr) { p.sink.FlushLine(line) }

func (p *eagerPolicy) StoreRun(line trace.LineAddr, n int) {
	for ; n > 0; n-- {
		p.sink.FlushLine(line)
	}
}

func (p *eagerPolicy) FASEBegin() {}

// FASEEnd waits for outstanding asynchronous flushes so the FASE's
// persistence guarantee holds.
func (p *eagerPolicy) FASEEnd() { p.sink.Drain(nil) }

func (p *eagerPolicy) Finish() { p.sink.Drain(nil) }

// lazyPolicy records each FASE's distinct dirty lines and drains them all
// at FASE end: minimal flushes, maximal stall.
type lazyPolicy struct {
	sink  FlushSink
	seen  map[trace.LineAddr]struct{}
	order []trace.LineAddr
}

func newLazyPolicy(sink FlushSink) *lazyPolicy {
	return &lazyPolicy{sink: sink, seen: make(map[trace.LineAddr]struct{}, 256)}
}

func (p *lazyPolicy) Kind() PolicyKind { return Lazy }

func (p *lazyPolicy) Store(line trace.LineAddr) {
	if _, ok := p.seen[line]; ok {
		return
	}
	p.seen[line] = struct{}{}
	p.order = append(p.order, line)
}

// StoreRun is one Store: a repeat within the FASE is already recorded.
func (p *lazyPolicy) StoreRun(line trace.LineAddr, _ int) { p.Store(line) }

func (p *lazyPolicy) FASEBegin() {}

func (p *lazyPolicy) FASEEnd() {
	if len(p.order) == 0 {
		return
	}
	p.sink.Drain(p.order)
	p.order = p.order[:0]
	clear(p.seen)
}

func (p *lazyPolicy) Finish() { p.FASEEnd() }

// bestPolicy never flushes: the upper bound of Section IV-A. It is not a
// valid persistence technique (a crash loses data); it exists to bound the
// attainable performance.
type bestPolicy struct{}

func (*bestPolicy) Kind() PolicyKind                 { return Best }
func (*bestPolicy) Store(_ trace.LineAddr)           {}
func (*bestPolicy) StoreRun(_ trace.LineAddr, _ int) {}
func (*bestPolicy) FASEBegin()                       {}
func (*bestPolicy) FASEEnd()                         {}
func (*bestPolicy) Finish()                          {}

// RunSeq replays one thread's recorded sequence through a policy. It is the
// bridge between trace-based workloads (internal/splash) and the policy
// engines.
func RunSeq(p Policy, s *trace.ThreadSeq) {
	for i := 0; i < s.NumFASEs(); i++ {
		p.FASEBegin()
		for _, line := range s.FASE(i) {
			p.Store(line)
		}
		p.FASEEnd()
	}
	p.Finish()
}
