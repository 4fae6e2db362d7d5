package pmem

import (
	"sync/atomic"

	"nvmcache/internal/core"
	"nvmcache/internal/trace"
)

// Sink adapts a Heap to core.FlushSink so persistence policies drive real
// data movement: FlushLine and Drain both copy lines to the durable view
// (timing is hwsim's concern, not pmem's).
//
// Counters: FlushLine — the eviction path, ~once per missed store — bumps a
// plain owner-local count; Drain, which ends every FASE that flushed
// anything, folds it into the atomics Stats reads. Stats is therefore exact
// when the owner calls it between FASEs, and from any other goroutine lags
// by at most the FASE in progress.
type Sink struct {
	h *Heap
	// unpublished counts FlushLine calls since the last Drain. Owner only.
	unpublished int64
	async       atomic.Int64
	drained     atomic.Int64
	barriers    atomic.Int64
}

// NewSink returns a flush sink backed by h.
func NewSink(h *Heap) *Sink { return &Sink{h: h} }

// Heap returns the backing heap.
func (s *Sink) Heap() *Heap { return s.h }

// FlushLine implements core.FlushSink: an asynchronous line write-back.
func (s *Sink) FlushLine(line trace.LineAddr) {
	s.h.FlushLine(line)
	s.unpublished++
}

// Drain implements core.FlushSink: flush the given lines, then a
// persistence barrier. It publishes the FASE's FlushLine count.
func (s *Sink) Drain(lines []trace.LineAddr) {
	for _, l := range lines {
		s.h.FlushLine(l)
	}
	if s.unpublished != 0 {
		s.async.Add(s.unpublished)
		s.unpublished = 0
	}
	if len(lines) == 0 {
		s.barriers.Add(1)
		return
	}
	s.drained.Add(int64(len(lines)))
}

// Stats implements core.FlushSink.
func (s *Sink) Stats() core.FlushStats {
	return core.FlushStats{
		Async:    s.async.Load(),
		Drained:  s.drained.Load(),
		Barriers: s.barriers.Load(),
	}
}
