package harness

import (
	"fmt"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
)

// OverlapOptions tunes the flush-overlap experiment: the same single-thread
// FASE workload run twice, once with synchronous FASE-end drains and once
// through the asynchronous flush pipeline (publish epoch N, run FASE N+1,
// await epoch N).
type OverlapOptions struct {
	// Stores is the store count per run (default 200k).
	Stores int
	// FASELength is the number of stores per failure-atomic section. Each
	// store hits its own cache line, so a FASE-end drain covers FASELength
	// consecutive lines (default 128).
	FASELength int
	// Policy is the per-thread persistence policy (default SC).
	Policy core.PolicyKind
	// Depth is the pipeline ring capacity in entries (default 256).
	Depth int
	// BatchSize caps async write-back batches (default 64).
	BatchSize int
}

// DefaultOverlapOptions returns the configuration the overlap experiment
// reports.
func DefaultOverlapOptions() OverlapOptions {
	return OverlapOptions{
		Stores:     200_000,
		FASELength: 128,
		Policy:     core.SoftCacheOnline,
		Depth:      256,
		BatchSize:  64,
	}
}

func (o OverlapOptions) withDefaults() OverlapOptions {
	d := DefaultOverlapOptions()
	if o.Stores <= 0 {
		o.Stores = d.Stores
	}
	if o.FASELength <= 0 {
		o.FASELength = d.FASELength
	}
	if o.Depth <= 0 {
		o.Depth = d.Depth
	}
	if o.BatchSize <= 0 {
		o.BatchSize = d.BatchSize
	}
	return o
}

// OverlapRow is one run (sync or pipelined) of the overlap experiment.
type OverlapRow struct {
	Mode       string
	Stores     int64
	Elapsed    time.Duration
	StoresPerS float64
	// Flushed is the number of lines written back (async + drained).
	Flushed int64
	// Batches, AvgBatch and MaxBatch describe the pipeline worker's batch
	// sizes (zero for the sync row).
	Batches  int64
	AvgBatch float64
	MaxBatch int64
	// Stalls counts backpressure events (enqueues that found the ring
	// full); Blocked is the mutator wall clock lost to those stalls plus
	// epoch awaits.
	Stalls  int64
	Blocked time.Duration
	// Overlap is the fraction of the mutator's wall clock during which
	// flushing proceeded without blocking it: 1 - Blocked/Elapsed. For the
	// sync row it is zero by construction — every FASE-end drain runs on
	// the mutator.
	Overlap float64
}

// OverlapResult compares the synchronous drain baseline against the
// pipelined publish/await protocol on the same workload.
type OverlapResult struct {
	Policy     core.PolicyKind
	FASELength int
	Sync       OverlapRow
	Pipe       OverlapRow
	// BatchHist is the pipelined run's batch-size histogram in log2
	// buckets (1, 2, 3–4, 5–8, ..., ≥128 lines).
	BatchHist []int64
}

// FlushOverlap runs the overlap experiment: one atlas thread storing one
// line per store in FASEs of opt.FASELength, first with synchronous
// FASE-end drains, then with the flush pipeline enabled and the workload
// overlapping FASE N+1's stores with FASE N's drain (FASEPublish with an
// await lag of one). It reports wall-clock throughput, the pipeline's
// batch-size distribution and the flush/compute overlap fraction.
func FlushOverlap(opt OverlapOptions) (*OverlapResult, error) {
	opt = opt.withDefaults()
	res := &OverlapResult{Policy: opt.Policy, FASELength: opt.FASELength}
	var err error
	if res.Sync, _, err = overlapOnce(opt, false); err != nil {
		return nil, err
	}
	if res.Pipe, res.BatchHist, err = overlapOnce(opt, true); err != nil {
		return nil, err
	}
	return res, nil
}

// overlapOnce runs the workload once. The address stream strides one cache
// line per store over a region of regionLines lines, so both runs issue the
// identical store and flush sets; only the drain mechanism differs.
func overlapOnce(opt OverlapOptions, pipelined bool) (OverlapRow, []int64, error) {
	const regionLines = 1 << 12
	heapSize := regionLines * 64 * 4
	if heapSize < 1<<22 {
		heapSize = 1 << 22
	}
	h := pmem.New(heapSize)
	aopts := atlas.DefaultOptions()
	aopts.Policy = opt.Policy
	aopts.DisableTrace = true
	if pipelined {
		aopts.Pipeline = core.PipelineConfig{Enabled: true, Depth: opt.Depth, BatchSize: opt.BatchSize}
	}
	rt := atlas.NewRuntime(h, aopts)
	th, err := rt.NewThread()
	if err != nil {
		return OverlapRow{}, nil, err
	}
	base, err := h.AllocLines(regionLines * 64)
	if err != nil {
		return OverlapRow{}, nil, err
	}
	var prev atlas.FASETicket
	havePrev := false
	start := time.Now()
	for n := 0; n < opt.Stores; n++ {
		if n%opt.FASELength == 0 {
			th.FASEBegin()
		}
		addr := base + uint64(n%regionLines)*64
		th.Store64(addr, uint64(n)+1)
		if n%opt.FASELength == opt.FASELength-1 {
			if pipelined {
				// Publish this FASE's epoch and await only the previous
				// one: FASE N+1's stores overlap FASE N's drain.
				tk := th.FASEPublish()
				if havePrev {
					th.FASEAwait(prev)
				}
				prev, havePrev = tk, true
			} else {
				th.FASEEnd()
			}
		}
	}
	if th.InFASE() {
		th.FASEEnd()
	}
	if havePrev {
		th.FASEAwait(prev)
	}
	elapsed := time.Since(start)
	stats := th.FlushStats()
	rt.Close()
	row := OverlapRow{
		Mode:    "sync",
		Stores:  int64(opt.Stores),
		Elapsed: elapsed,
		Flushed: stats.Total(),
		Stalls:  stats.PipeStalls,
		Blocked: time.Duration(stats.PipeStallNanos + stats.PipeAwaitNanos),
	}
	if s := elapsed.Seconds(); s > 0 {
		row.StoresPerS = float64(row.Stores) / s
	}
	var hist []int64
	if p := th.Pipeline(); p != nil {
		row.Mode = "pipeline"
		row.Batches = stats.PipeBatches
		row.MaxBatch = stats.PipeBatchMax
		if stats.PipeBatches > 0 {
			row.AvgBatch = float64(stats.PipeBatchLines) / float64(stats.PipeBatches)
		}
		if row.Elapsed > 0 {
			row.Overlap = 1 - float64(row.Blocked)/float64(row.Elapsed)
			if row.Overlap < 0 {
				row.Overlap = 0
			}
		}
		b := p.BatchSizes()
		hist = b[:]
	}
	return row, hist, nil
}

// Table renders the comparison.
func (r *OverlapResult) Table() *Table {
	histS := ""
	for i, n := range r.BatchHist {
		if i > 0 {
			histS += " "
		}
		histS += fmt.Sprintf("%d", n)
	}
	t := &Table{
		Title: fmt.Sprintf("Flush/compute overlap: sync drain vs pipelined publish/await (policy %v, FASE=%d lines)",
			r.Policy, r.FASELength),
		Headers: []string{"mode", "stores", "elapsed", "stores/sec", "flushed", "batches", "avg batch", "stalls", "blocked", "overlap"},
		Notes: []string{
			"overlap = fraction of mutator wall clock not blocked on epoch awaits or ring backpressure",
			fmt.Sprintf("batch-size histogram (log2 buckets: 1, 2, ≤4, ≤8, ..., ≥128 lines): %s", histS),
		},
	}
	for _, row := range []OverlapRow{r.Sync, r.Pipe} {
		overlap := "-"
		if row.Mode == "pipeline" {
			overlap = f5(row.Overlap)
		}
		t.AddRow(
			row.Mode,
			fmt.Sprintf("%d", row.Stores),
			row.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", row.StoresPerS),
			fmt.Sprintf("%d", row.Flushed),
			fmt.Sprintf("%d", row.Batches),
			fmt.Sprintf("%.1f", row.AvgBatch),
			fmt.Sprintf("%d", row.Stalls),
			row.Blocked.Round(time.Microsecond).String(),
			overlap,
		)
	}
	return t
}
