package hwsim

import (
	"sync/atomic"

	"nvmcache/internal/core"
	"nvmcache/internal/trace"
)

// Sink adapts an Engine to core.FlushSink: flushes are replayed through
// the cycle-level flush-slot model (Engine.FlushAsync/FlushDrain) while
// the sink keeps the policy-visible flush counts. The Engine is
// single-threaded by design — one Sink per Engine per replayed thread —
// but Stats uses atomic counters so a monitor may sample it while the
// replay is running.
type Sink struct {
	e        *Engine
	async    atomic.Int64
	drained  atomic.Int64
	barriers atomic.Int64
}

// NewSink returns a flush sink that replays through e.
func NewSink(e *Engine) *Sink { return &Sink{e: e} }

// Engine returns the backing engine.
func (s *Sink) Engine() *Engine { return s.e }

// FlushLine implements core.FlushSink.
func (s *Sink) FlushLine(line trace.LineAddr) {
	s.e.FlushAsync(line)
	s.async.Add(1)
}

// Drain implements core.FlushSink.
func (s *Sink) Drain(lines []trace.LineAddr) {
	s.e.FlushDrain(lines)
	s.drained.Add(int64(len(lines)))
	if len(lines) == 0 {
		s.barriers.Add(1)
	}
}

// Stats implements core.FlushSink.
func (s *Sink) Stats() core.FlushStats {
	return core.FlushStats{
		Async:    s.async.Load(),
		Drained:  s.drained.Load(),
		Barriers: s.barriers.Load(),
	}
}
