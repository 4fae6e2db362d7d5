package kv

import (
	"time"

	"nvmcache/internal/adaptive"
	"nvmcache/internal/core"
)

// shardControl adapts one shard to the adaptive.Shard control surface. All
// methods publish targets the shard applies at its next safe point — the
// capacity at the next FASE end (core.CapacityControlled), the pipeline
// depth immediately under the pipeline's own lock, the absorption deadline
// at the writer's next timer arm — so the controller never touches
// writer-owned state.
type shardControl struct {
	sh *shard
}

func (sc *shardControl) CacheCapacity() int {
	if cc, ok := sc.sh.th.Policy().(core.CapacityControlled); ok {
		return cc.CacheSize()
	}
	return 0
}

func (sc *shardControl) SetCacheCapacity(capacity int) {
	if cc, ok := sc.sh.th.Policy().(core.CapacityControlled); ok {
		cc.RequestCapacity(capacity)
	}
}

func (sc *shardControl) PipeDepth() int {
	if p := sc.sh.th.Pipeline(); p != nil {
		return p.Depth()
	}
	return 0
}

func (sc *shardControl) SetPipeDepth(depth int) {
	if p := sc.sh.th.Pipeline(); p != nil {
		p.SetDepth(depth)
	}
}

func (sc *shardControl) AbsorbDeadline() time.Duration {
	if !sc.sh.absorbOn() {
		return 0
	}
	return time.Duration(sc.sh.absorbDeadlineNs.Load())
}

func (sc *shardControl) SetAbsorbDeadline(d time.Duration) {
	if !sc.sh.absorbOn() || d <= 0 {
		return
	}
	sc.sh.absorbDeadlineNs.Store(int64(d))
}

func (sc *shardControl) Counters() adaptive.Counters {
	return adaptive.Counters{
		PipeStalls: sc.sh.pipeStalls.Load(),
		Absorbed:   sc.sh.absorbed.Load(),
		Committed:  sc.sh.committed.Load(),
		CounterOps: sc.sh.incrs.Load() + sc.sh.decrs.Load(),
	}
}

// initAdaptive builds the per-shard sampling taps before the runtime exists
// (Open/Recover hand them to atlas via Options.StoreTap; shard i's thread id
// is i, so the tap slice is index-aligned with the shards).
func initAdaptive(opts Options) []*adaptive.Tap {
	if !opts.Adaptive.Enabled {
		return nil
	}
	taps := make([]*adaptive.Tap, opts.Shards)
	for i := range taps {
		taps[i] = adaptive.NewTap(opts.Adaptive.BurstLength, opts.Adaptive.Hibernation)
	}
	return taps
}

// startAdaptive wires the controller over the built shards and launches its
// decision loop. Called after the shards exist, before serving starts.
func (s *Store) startAdaptive() {
	if s.taps == nil {
		return
	}
	ctls := make([]adaptive.Shard, len(s.shards))
	for i, sh := range s.shards {
		ctls[i] = &shardControl{sh: sh}
	}
	s.ctrl = adaptive.NewController(s.opts.Adaptive, s.taps, ctls)
	s.ctrl.Start()
}

// stopAdaptive halts the controller; safe to call multiple times and with no
// controller at all.
func (s *Store) stopAdaptive() {
	if s.ctrl != nil {
		s.ctrl.Stop()
	}
}

// RequestCacheResize asks shard's persistence policy to retarget its write
// cache to capacity lines, applied by the shard writer at its next FASE end
// (before that FASE's drain, so shrink evictions are covered by the drain's
// barrier). It reports whether the shard's policy supports resizing; it does
// not wait for the resize to take effect. Deterministic workloads (e.g. the
// fault-injection explorer) use this to place resizes at exact points in the
// operation stream, independent of the controller.
func (s *Store) RequestCacheResize(shard, capacity int) bool {
	if shard < 0 || shard >= len(s.shards) {
		return false
	}
	if cc, ok := s.shards[shard].th.Policy().(core.CapacityControlled); ok {
		cc.RequestCapacity(capacity)
		return true
	}
	return false
}

// AdaptiveGauges snapshots every shard's control-plane instrumentation, or
// nil when the adaptive controller is off.
func (s *Store) AdaptiveGauges() []adaptive.ShardGauges {
	if s.ctrl == nil {
		return nil
	}
	out := make([]adaptive.ShardGauges, len(s.shards))
	for i := range out {
		out[i] = s.ctrl.Gauges(i)
	}
	return out
}

// AdaptiveDecisions returns the controller's retained decision trajectory
// (oldest first), or nil when the controller is off.
func (s *Store) AdaptiveDecisions() []adaptive.Decision {
	if s.ctrl == nil {
		return nil
	}
	return s.ctrl.Decisions()
}
