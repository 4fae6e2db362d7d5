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
// The boundaries are the runtime's own event seam: an Injector's Events
// method is an atlas.Events, installed through atlas.Options.Events or
// kv.Options.Events (and atlas.RecoverWith for recovery). An armed site
// panics with an atlas.Crash; the explorer, or kv's committer, recovers it
// and abandons the failure-atomic section mid-flight, exactly as a power
// failure at that instruction would.
package faultinject

import (
	"flag"
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

// Injector numbers the persistence boundaries a workload crosses. In
// counting mode it only tallies them; armed at site k, the k-th boundary
// crossed while the injector is enabled panics with an atlas.Crash. Enable it
// only once the system under test is set up (after kv.Open / thread
// creation), so the site space covers the serving path and every
// enumerated site is one the workload deterministically revisits.
//
// Events may be called from any goroutine; at most one site ever fires.
type Injector struct {
	enabled atomic.Bool
	next    atomic.Int64
	target  int64 // -1: counting mode
	fired   atomic.Pointer[atlas.Crash]
	kinds   [atlas.NumSites]atomic.Int64

	record bool // counting mode: keep seq (newRecording)
	seqMu  sync.Mutex
	seq    []atlas.Site // every numbered site's kind, by number
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

// Disable stops the injector; Events become no-ops again.
func (in *Injector) Disable() { in.enabled.Store(false) }

// Sites is the number of boundaries crossed while enabled.
func (in *Injector) Sites() int { return int(in.next.Load()) }

// Fired returns the crash this injector raised, if any.
func (in *Injector) Fired() (atlas.Crash, bool) {
	if c := in.fired.Load(); c != nil {
		return *c, true
	}
	return atlas.Crash{}, false
}

// Sequence returns a recording injector's sites in order: element i is the
// kind of site i. (Sites numbered concurrently are ordered by number, which
// is the order an armed run of a deterministic workload crosses them.)
func (in *Injector) Sequence() []atlas.Site {
	in.seqMu.Lock()
	defer in.seqMu.Unlock()
	return append([]atlas.Site(nil), in.seq...)
}

// Kinds returns the per-kind census of boundaries crossed.
func (in *Injector) Kinds() map[atlas.Site]int {
	m := make(map[atlas.Site]int, atlas.NumSites)
	for k := atlas.Site(0); k < atlas.NumSites; k++ {
		if n := in.kinds[k].Load(); n > 0 {
			m[k] = int(n)
		}
	}
	return m
}

// Events numbers one persistence boundary; it has the shape of
// atlas.Events. If this is the armed site, it panics with an atlas.Crash;
// the caller side (explorer or kv committer) is responsible for recovering
// the panic and realizing the heap crash. kv's pre-commit boundary is
// delivered but not numbered: the durable view changes only at write-backs
// and log write-throughs, each a numbered site, so a crash there leaves the
// state a crash at the next numbered site leaves.
func (in *Injector) Events(kind atlas.Site, _ int, _ uint64) {
	if kind == atlas.SitePreCommit || !in.enabled.Load() {
		return
	}
	site := in.next.Add(1) - 1
	in.kinds[kind].Add(1)
	if in.target < 0 {
		if in.record {
			in.seqMu.Lock()
			if n := int(site) + 1; len(in.seq) < n {
				in.seq = append(in.seq, make([]atlas.Site, n-len(in.seq))...)
			}
			in.seq[site] = kind
			in.seqMu.Unlock()
		}
		return
	}
	if site == in.target {
		c := atlas.Crash{N: int(site), Site: kind}
		if in.fired.CompareAndSwap(nil, &c) {
			panic(c)
		}
	}
}

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
