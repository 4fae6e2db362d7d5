package hwsim

import "nvmcache/internal/trace"

// Engine is one thread's cycle-accounting machine model. It implements
// core.Flusher, so a persistence policy plugged into it is charged for
// every flush it issues; the surrounding driver additionally reports each
// persistent store and each FASE boundary.
//
// Asynchrony model: the engine owns MaxOutstanding flush slots. Issuing a
// flush costs FlushIssue cycles; the transfer then occupies a slot for
// FlushLatency·contention cycles. If all slots are busy the issuer stalls
// until one frees — that is how the eager policy's flood of flushes
// throttles execution even though each flush is "asynchronous". FlushDrain
// additionally waits for every slot to empty, modelling the FASE-end stall
// the lazy policy suffers and the software cache bounds.
type Engine struct {
	cm         CostModel
	contention float64
	now        float64
	slots      []float64 // completion times of in-flight flushes
	// invalidated tracks lines evicted from the hardware cache by clflush;
	// the next store to such a line pays the re-miss penalty.
	invalidated map[trace.LineAddr]struct{}
	stats       EngineStats
}

// EngineStats aggregates one thread's simulated execution.
type EngineStats struct {
	Cycles         float64 // total simulated time
	ComputeCycles  float64 // program work (all policies pay this equally)
	TableCycles    float64 // persistence bookkeeping
	IssueCycles    float64 // clflush issue cost
	QueueStall     float64 // waits for a free flush slot (mid-FASE)
	DrainStall     float64 // FASE-end waits for the queue to empty
	MissPenalty    float64 // re-misses on invalidated lines
	AnalysisCycles float64 // online MRC sampling/selection
	FASECycles     float64 // section begin/end overhead
	Stores         int64
	AsyncFlushes   int64
	DrainFlushes   int64
	InvalidationRe int64 // stores that paid the re-miss penalty
	Instructions   float64
	FASEs          int64
}

// NewEngine returns an engine for one thread of a threads-wide run.
func NewEngine(cm CostModel, threads int) *Engine {
	if cm.MaxOutstanding < 1 {
		cm.MaxOutstanding = 1
	}
	return &Engine{
		cm:          cm,
		contention:  cm.Contention(threads),
		slots:       make([]float64, 0, cm.MaxOutstanding),
		invalidated: make(map[trace.LineAddr]struct{}, 1024),
	}
}

// Instrumentation grades the per-store bookkeeping a policy performs.
type Instrumentation int

// Instrumentation levels: none (eager, BEST), a table probe (Atlas, lazy),
// or a full LRU cache update (software cache — the paper's Table IV shows
// SC executing ~6%% more instructions than AT).
const (
	NoInstrument Instrumentation = iota
	TableInstrument
	CacheInstrument
)

// OnStore charges one persistent store: the program's own work, the
// policy's bookkeeping (per its instrumentation level), and the re-miss
// penalty if the line was invalidated by an earlier clflush.
func (e *Engine) OnStore(line trace.LineAddr, instr Instrumentation) {
	e.now += e.cm.ComputePerStore
	e.stats.ComputeCycles += e.cm.ComputePerStore
	e.stats.Instructions += e.cm.BaseInstrPerStore
	e.stats.Stores++
	switch instr {
	case TableInstrument:
		e.now += e.cm.TableOpPerStore
		e.stats.TableCycles += e.cm.TableOpPerStore
		e.stats.Instructions += e.cm.TableInstrPerStore
	case CacheInstrument:
		e.now += 1.5 * e.cm.TableOpPerStore
		e.stats.TableCycles += 1.5 * e.cm.TableOpPerStore
		e.stats.Instructions += 1.5 * e.cm.TableInstrPerStore
	}
	if _, ok := e.invalidated[line]; ok {
		delete(e.invalidated, line)
		e.now += e.cm.InvalidateMissPenalty
		e.stats.MissPenalty += e.cm.InvalidateMissPenalty
		e.stats.InvalidationRe++
	}
}

// OnFASEBoundary charges the fixed cost of entering or leaving a section.
func (e *Engine) OnFASEBoundary() {
	e.now += e.cm.FASEOverhead
	e.stats.FASECycles += e.cm.FASEOverhead
	e.stats.Instructions += 10
	e.stats.FASEs++
}

// ChargeAnalysis adds the online MRC analysis cost for n sampled writes.
func (e *Engine) ChargeAnalysis(n int64) {
	c := e.cm.AnalysisPerWrite * float64(n)
	e.now += c
	e.stats.AnalysisCycles += c
	e.stats.Instructions += 6 * float64(n)
}

// FlushAsync implements core.Flusher: issue a clflush whose transfer
// overlaps with subsequent computation.
func (e *Engine) FlushAsync(line trace.LineAddr) {
	e.issue(line, &e.stats.QueueStall)
	e.stats.AsyncFlushes++
}

// FlushDrain implements core.Flusher: issue the lines, then wait until the
// flush queue is completely empty.
func (e *Engine) FlushDrain(lines []trace.LineAddr) {
	for _, l := range lines {
		e.issue(l, &e.stats.DrainStall)
		e.stats.DrainFlushes++
	}
	var max float64
	for _, t := range e.slots {
		if t > max {
			max = t
		}
	}
	if max > e.now {
		e.stats.DrainStall += max - e.now
		e.now = max
	}
	e.slots = e.slots[:0]
}

func (e *Engine) issue(line trace.LineAddr, stall *float64) {
	e.now += e.cm.FlushIssue
	e.stats.IssueCycles += e.cm.FlushIssue
	e.stats.Instructions++
	// Drop completed transfers, then claim a slot for line's transfer,
	// stalling on a full queue.
	live := e.slots[:0]
	for _, t := range e.slots {
		if t > e.now {
			live = append(live, t)
		}
	}
	e.slots = live
	if len(e.slots) >= e.cm.MaxOutstanding {
		// Wait for the earliest slot.
		minIdx := 0
		for i, t := range e.slots {
			if t < e.slots[minIdx] {
				minIdx = i
			}
		}
		wait := e.slots[minIdx] - e.now
		if wait > 0 {
			*stall += wait
			e.now = e.slots[minIdx]
		}
		e.slots = append(e.slots[:minIdx], e.slots[minIdx+1:]...)
	}
	e.slots = append(e.slots, e.now+e.cm.FlushLatency*e.contention)
	if !e.cm.NoInvalidate {
		e.invalidated[line] = struct{}{} // clflush semantics
	}
}

// Now returns the thread's simulated clock.
func (e *Engine) Now() float64 { return e.now }

// Stats returns the accumulated statistics with Cycles filled in.
func (e *Engine) Stats() EngineStats {
	s := e.stats
	s.Cycles = e.now
	return s
}
