// Package adaptive closes the paper's loop at serving time: per-shard
// samplers tap the live store stream (core.StoreTap), completed bursts
// become locality profiles (MRC, working set, hotness via
// locality.ProfileBurst), and a periodic controller retargets each shard's
// write-cache capacity — the Section III-C knee rule under hysteresis and
// a global memory budget — plus its absorption deadline from observed
// absorption counters.
//
// The package deliberately sits below the engine: it imports only core,
// locality, sampling and trace, and talks to shards through the Shard
// control surface, so internal/kv can adapt its shards without a cycle.
package adaptive

import (
	"sync/atomic"

	"nvmcache/internal/sampling"
	"nvmcache/internal/trace"
)

// Tap is the hot-path end of the control loop: a core.StoreTap that feeds
// one shard thread's line stream into a bursty sampler and publishes each
// completed burst for the controller to collect. TapStore/TapFASEEnd run
// on the owning mutator only (they are not concurrency-safe, matching the
// StoreTap contract); TakeBurst and the gauges are safe from any
// goroutine. While the sampler hibernates, TapStore is a counter bump —
// no allocation, no shared-state write.
type Tap struct {
	smp *sampling.Sampler

	// burst is the newest completed burst, handed off by pointer swap; if
	// the controller polls slower than bursts complete, older bursts are
	// superseded (the newest locality evidence wins).
	burst   atomic.Pointer[[]uint64]
	sampled atomic.Int64
	bursts  atomic.Int64
}

// NewTap builds a tap whose sampler records bursts of burstLen writes and
// hibernates for hibernation writes between them. A non-positive
// hibernation means sampling.Infinite (one burst ever) — the controller
// wants periodic re-sampling, so callers normally pass a positive value.
func NewTap(burstLen int, hibernation int64) *Tap {
	if hibernation <= 0 {
		hibernation = sampling.Infinite
	}
	return &Tap{smp: sampling.New(sampling.Config{BurstLength: burstLen, Hibernation: hibernation})}
}

// TapStore implements core.StoreTap. On burst completion the burst is
// copied out of the sampler (which immediately becomes reusable) and
// published.
func (t *Tap) TapStore(line trace.LineAddr) {
	if t.smp.RecordStore(line) {
		b := append([]uint64(nil), t.smp.Burst()...)
		t.sampled.Add(int64(len(b)))
		t.bursts.Add(1)
		t.burst.Store(&b)
	}
}

// TapFASEEnd implements core.StoreTap: the FASE renaming boundary.
func (t *Tap) TapFASEEnd() { t.smp.FASEEnd() }

// TakeBurst returns the most recently completed burst and clears the slot,
// or nil when no burst completed since the last call.
func (t *Tap) TakeBurst() []uint64 {
	if p := t.burst.Swap(nil); p != nil {
		return *p
	}
	return nil
}

// SampledLines returns the total lines recorded into completed bursts.
func (t *Tap) SampledLines() int64 { return t.sampled.Load() }

// Bursts returns how many bursts have completed.
func (t *Tap) Bursts() int64 { return t.bursts.Load() }
