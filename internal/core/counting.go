package core

import (
	"sync/atomic"

	"nvmcache/internal/trace"
)

// FlushStats aggregates write-back counts: the data of Table III.
type FlushStats struct {
	// Async counts mid-FASE flushes (evictions, eager stores), which can
	// overlap with computation.
	Async int64
	// Drained counts FASE-end flushes, which stall the CPU.
	Drained int64
	// Barriers counts empty drains (pure waits).
	Barriers int64
}

// Total returns all line flushes (excluding pure barriers).
func (s FlushStats) Total() int64 { return s.Async + s.Drained }

// Add returns the element-wise sum.
func (s FlushStats) Add(o FlushStats) FlushStats {
	return FlushStats{
		Async:    s.Async + o.Async,
		Drained:  s.Drained + o.Drained,
		Barriers: s.Barriers + o.Barriers,
	}
}

// CountingSink counts flushes and nothing else: the flush-ratio instrument
// behind Table III. It optionally forwards to a Flusher device, which is
// how policies are bridged onto internal/hwsim's cycle model. Counters are
// atomic so Stats can be read while the owning thread is storing; the
// forwarded device calls stay single-threaded (one sink per policy per
// thread).
type CountingSink struct {
	async    atomic.Int64
	drained  atomic.Int64
	barriers atomic.Int64
	next     Flusher
}

// NewCountingSink returns a sink that only counts. Pass a non-nil next to
// also forward every operation to a flush device.
func NewCountingSink(next Flusher) *CountingSink {
	return &CountingSink{next: next}
}

// FlushLine implements FlushSink.
func (c *CountingSink) FlushLine(line trace.LineAddr) {
	c.async.Add(1)
	if c.next != nil {
		c.next.FlushAsync(line)
	}
}

// Drain implements FlushSink.
func (c *CountingSink) Drain(lines []trace.LineAddr) {
	if len(lines) == 0 {
		c.barriers.Add(1)
	}
	c.drained.Add(int64(len(lines)))
	if c.next != nil {
		c.next.FlushDrain(lines)
	}
}

// Stats implements FlushSink. Safe to call concurrently with FlushLine and
// Drain from the owning thread.
func (c *CountingSink) Stats() FlushStats {
	return FlushStats{Async: c.async.Load(), Drained: c.drained.Load(), Barriers: c.barriers.Load()}
}

// Reset zeroes the counters.
func (c *CountingSink) Reset() {
	c.async.Store(0)
	c.drained.Store(0)
	c.barriers.Store(0)
}

// RecordingSink additionally records the flushed line addresses in order;
// tests use it to assert exactly which lines were written back. Unlike the
// embedded CountingSink's counters, the line slices are not synchronized —
// single-goroutine use only.
type RecordingSink struct {
	CountingSink
	AsyncLines []trace.LineAddr
	DrainLines []trace.LineAddr
}

// FlushLine implements FlushSink.
func (r *RecordingSink) FlushLine(line trace.LineAddr) {
	r.CountingSink.FlushLine(line)
	r.AsyncLines = append(r.AsyncLines, line)
}

// Drain implements FlushSink.
func (r *RecordingSink) Drain(lines []trace.LineAddr) {
	r.CountingSink.Drain(lines)
	r.DrainLines = append(r.DrainLines, lines...)
}

// AllLines returns every flushed line in a single slice (async first).
func (r *RecordingSink) AllLines() []trace.LineAddr {
	out := make([]trace.LineAddr, 0, len(r.AsyncLines)+len(r.DrainLines))
	out = append(out, r.AsyncLines...)
	out = append(out, r.DrainLines...)
	return out
}

// FlushRatio runs a policy kind over a trace with a counting sink and
// returns flushes / stores: one cell of Table III. Each thread gets its own
// policy instance, as in the paper's per-thread design.
func FlushRatio(kind PolicyKind, cfg Config, t *trace.Trace) float64 {
	var stores, flushes int64
	for _, s := range t.Threads {
		cs := NewCountingSink(nil)
		RunSeq(NewPolicy(kind, cfg, cs), s)
		stores += int64(s.NumWrites())
		flushes += cs.Stats().Total()
	}
	if stores == 0 {
		return 0
	}
	return float64(flushes) / float64(stores)
}
