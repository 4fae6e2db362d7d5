// Package faultinject turns the repo's failure-atomicity claim into a
// machine-checked property. The paper's adaptive software cache only earns
// its keep if write-combining plus eviction-time flushing stays crash
// consistent, and the dangerous crash points are exactly the persistence
// boundaries: each asynchronous line write-back, each line of a FASE-end
// drain, each undo-log append, each group-commit ack. This package numbers
// every one of those boundaries with an Injector, first running a workload
// in counting mode to enumerate the sites, then replaying it once per site
// with a simulated power failure (pmem.Heap.Crash) at exactly that
// boundary, recovering, and checking invariants: no acked write lost, no
// unacked write visible, undo rollback complete, dirty-line state empty.
//
// The interposition points are the seams the runtime already exposes:
// core.FlushSink (wrapped via atlas/kv Options.WrapSink), the undo log's
// atlas.UndoOp hook, and kv's post-commit ack boundary. An armed site
// panics with a Crash value; the explorer (or kv's committing goroutine,
// via Options.IsInjectedCrash) recovers it and abandons the failure-atomic
// section mid-flight, exactly as a power failure at that instruction
// would.
package faultinject

import (
	"flag"
	"fmt"
	"sync"
	"sync/atomic"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/trace"
)

// seedFlag overrides the root seed of randomized exploration schedules
// (ExploreKVRandom); the seed in use is always part of the Report so a
// failing sweep can be replayed exactly.
var seedFlag = flag.Uint64("faultinject.seed", 1,
	"root seed for randomized crash-point exploration")

// FlagSeed returns the -faultinject.seed value.
func FlagSeed() uint64 { return *seedFlag }

// Kind classifies an injection site by the persistence boundary it sits
// on. Each kind leaves persistent state in a structurally different
// intermediate shape, which is why the Report counts them separately.
type Kind uint8

const (
	// KindFlushLine is a mid-FASE asynchronous line write-back (a cache
	// eviction or an eager store flush).
	KindFlushLine Kind = iota
	// KindDrainLine is one line persisted inside a FASE-end drain; a crash
	// here leaves the drain half done.
	KindDrainLine
	// KindDrainDone is the barrier completing a drain, before control
	// returns to the caller.
	KindDrainDone
	// KindUndoBegin..KindUndoCommit mirror atlas.UndoBegin..UndoCommit.
	KindUndoBegin
	KindUndoRecord
	KindUndoPublish
	KindUndoCommit
	// KindAck sits between a kv batch's durable commit and the delivery of
	// its acks; a crash here loses acks but must lose no data.
	KindAck
	// KindRecoverReplay fires before atlas recovery rolls back one active
	// undo log; a crash here cuts the recovery itself, which must be
	// re-runnable.
	KindRecoverReplay
	// KindRecoverInstall fires before a rolled-back log's status word is
	// cleared — the boundary where the rollback becomes final.
	KindRecoverInstall

	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFlushLine:
		return "flush-line"
	case KindDrainLine:
		return "drain-line"
	case KindDrainDone:
		return "drain-done"
	case KindUndoBegin:
		return "undo-begin"
	case KindUndoRecord:
		return "undo-record"
	case KindUndoPublish:
		return "undo-publish"
	case KindUndoCommit:
		return "undo-commit"
	case KindAck:
		return "ack"
	case KindRecoverReplay:
		return "recover-replay"
	case KindRecoverInstall:
		return "recover-install"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Crash is the panic payload of a fired injection site.
type Crash struct {
	// Site is the boundary's number in this run's enumeration order.
	Site int
	// Kind is the boundary the crash landed on.
	Kind Kind
}

func (c Crash) String() string {
	return fmt.Sprintf("injected crash at site %d (%s)", c.Site, c.Kind)
}

// IsCrash reports whether a recovered panic value is an injected crash.
// It is the kv Options.IsInjectedCrash classifier.
func IsCrash(r any) bool { _, ok := r.(Crash); return ok }

// Injector numbers the persistence boundaries a workload crosses. In
// counting mode it only tallies them; armed at site k, the k-th boundary
// crossed while the injector is enabled panics with a Crash. Enable it
// only once the system under test is set up (after kv.Open / thread
// creation), so the site space covers the serving path and every
// enumerated site is one the workload deterministically revisits.
//
// Point may be called from any goroutine; at most one site ever fires.
type Injector struct {
	enabled atomic.Bool
	next    atomic.Int64
	target  int64 // -1: counting mode
	fired   atomic.Pointer[Crash]
	kinds   [numKinds]atomic.Int64

	record bool // counting mode: keep seq (newRecording)
	seqMu  sync.Mutex
	seq    []Kind // every site's kind, by site number
}

// NewCounting returns an injector that enumerates sites without firing.
func NewCounting() *Injector { return &Injector{target: -1} }

// newRecording returns a counting injector that also records each site's
// kind for Sequence. Only the sequential kv sweeps read it, so only they
// pay for the lock.
func newRecording() *Injector { return &Injector{target: -1, record: true} }

// NewArmed returns an injector that crashes at boundary number site.
func NewArmed(site int) *Injector { return &Injector{target: int64(site)} }

// Enable starts numbering (and, if armed, firing).
func (in *Injector) Enable() { in.enabled.Store(true) }

// Disable stops the injector; Points become no-ops again.
func (in *Injector) Disable() { in.enabled.Store(false) }

// Sites is the number of boundaries crossed while enabled.
func (in *Injector) Sites() int { return int(in.next.Load()) }

// Fired returns the crash this injector raised, if any.
func (in *Injector) Fired() (Crash, bool) {
	if c := in.fired.Load(); c != nil {
		return *c, true
	}
	return Crash{}, false
}

// Sequence returns a recording injector's sites in order: element i is the
// kind of site i. (Sites numbered concurrently are ordered by number, which
// is the order an armed run of a deterministic workload crosses them.)
func (in *Injector) Sequence() []Kind {
	in.seqMu.Lock()
	defer in.seqMu.Unlock()
	return append([]Kind(nil), in.seq...)
}

// Kinds returns the per-kind census of boundaries crossed.
func (in *Injector) Kinds() map[Kind]int {
	m := make(map[Kind]int, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		if n := in.kinds[k].Load(); n > 0 {
			m[k] = int(n)
		}
	}
	return m
}

// Point marks one persistence boundary. If this is the armed site, it
// panics with a Crash; the caller side (explorer or kv committer) is
// responsible for recovering the panic and realizing the heap crash.
func (in *Injector) Point(kind Kind) {
	if !in.enabled.Load() {
		return
	}
	site := in.next.Add(1) - 1
	in.kinds[kind].Add(1)
	if in.target < 0 {
		if in.record {
			in.seqMu.Lock()
			if n := int(site) + 1; len(in.seq) < n {
				in.seq = append(in.seq, make([]Kind, n-len(in.seq))...)
			}
			in.seq[site] = kind
			in.seqMu.Unlock()
		}
		return
	}
	if site == in.target {
		c := Crash{Site: int(site), Kind: kind}
		if in.fired.CompareAndSwap(nil, &c) {
			panic(c)
		}
	}
}

// AckPoint is the kv Options.AckHook boundary.
func (in *Injector) AckPoint() { in.Point(KindAck) }

// WrapSink has the shape of atlas/kv Options.WrapSink: it interposes the
// injector's numbered sites on a thread's flush sink. A Drain is
// decomposed into per-line boundaries so a crash can land between any two
// write-backs of a FASE-end drain — the exact window where a policy that
// acknowledged too early would lose data.
func (in *Injector) WrapSink(_ int32, inner core.FlushSink) core.FlushSink {
	return &sink{in: in, inner: inner}
}

// UndoHook has the shape of atlas Options.UndoHook, mapping undo-log
// persistence points onto injection sites.
func (in *Injector) UndoHook() func(atlas.UndoOp) {
	return func(op atlas.UndoOp) {
		switch op {
		case atlas.UndoBegin:
			in.Point(KindUndoBegin)
		case atlas.UndoRecord:
			in.Point(KindUndoRecord)
		case atlas.UndoPublish:
			in.Point(KindUndoPublish)
		case atlas.UndoCommit:
			in.Point(KindUndoCommit)
		}
	}
}

// RecoverHook has the shape of atlas RecoverOptions.Hook (and kv
// Options.RecoverHook), mapping recovery-phase persistence points onto
// injection sites. Crashing a recovery must leave the heap recoverable by
// a second, clean Recover — these sites prove that idempotence.
func (in *Injector) RecoverHook() func(atlas.RecoverOp) {
	return func(op atlas.RecoverOp) {
		switch op {
		case atlas.RecoverReplay:
			in.Point(KindRecoverReplay)
		case atlas.RecoverInstall:
			in.Point(KindRecoverInstall)
		}
	}
}

type sink struct {
	in    *Injector
	inner core.FlushSink
}

func (s *sink) FlushLine(line trace.LineAddr) {
	s.in.Point(KindFlushLine)
	s.inner.FlushLine(line)
}

func (s *sink) Drain(lines []trace.LineAddr) {
	for _, line := range lines {
		s.in.Point(KindDrainLine)
		s.inner.FlushLine(line)
	}
	s.in.Point(KindDrainDone)
	s.inner.Drain(nil)
}

func (s *sink) Stats() core.FlushStats { return s.inner.Stats() }

// DropDrains returns a deliberately broken sink that acknowledges FASE-end
// drains without writing anything back — the flush-after-ack ordering bug
// the exploration engine exists to catch. Committed FASEs then have
// truncated undo logs but undrained data, so recovery cannot restore them.
// Negative tests install it as explorer middleware; it must never appear
// outside a test.
func DropDrains(inner core.FlushSink) core.FlushSink { return dropDrains{inner} }

type dropDrains struct{ inner core.FlushSink }

func (d dropDrains) FlushLine(line trace.LineAddr) { d.inner.FlushLine(line) }
func (d dropDrains) Drain([]trace.LineAddr)        {}
func (d dropDrains) Stats() core.FlushStats        { return d.inner.Stats() }
