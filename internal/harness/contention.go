package harness

import (
	"fmt"
	"sync"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
)

// ContentionOptions tunes the store-scaling experiment.
type ContentionOptions struct {
	// Goroutines lists the mutator counts to sweep (default 1, 2, 4, 8).
	Goroutines []int
	// StoresPerThread is each mutator's store count (default 200k).
	StoresPerThread int
	// FASELength is the number of stores per failure-atomic section
	// (default 64).
	FASELength int
	// Policy is the per-thread persistence policy (default SC).
	Policy core.PolicyKind
}

// DefaultContentionOptions returns the sweep the contention experiment
// reports.
func DefaultContentionOptions() ContentionOptions {
	return ContentionOptions{
		Goroutines:      []int{1, 2, 4, 8},
		StoresPerThread: 200_000,
		FASELength:      64,
		Policy:          core.SoftCacheOnline,
	}
}

// ContentionRow is one sweep point of the store-scaling experiment.
type ContentionRow struct {
	Goroutines int
	Stores     int64
	Elapsed    time.Duration
	StoresPerS float64
	// Speedup is StoresPerS relative to the 1-goroutine row.
	Speedup float64
}

// ContentionResult is the multi-thread store-throughput sweep.
type ContentionResult struct {
	Policy core.PolicyKind
	Rows   []ContentionRow
}

// StoreScaling measures real (wall-clock) multi-goroutine store throughput
// on the atlas→pmem hot path: g goroutines, one atlas.Thread each, storing
// into disjoint heap regions in FASEs of opt.FASELength stores. It reports
// throughput and scaling versus one goroutine. Unlike the trace-replay
// experiments (which model time in hwsim cycles), this experiment times the
// substrate itself: the owner's store → flush path takes no lock, so what
// bounds the speedup is the machine, not the heap.
func StoreScaling(opt ContentionOptions) (*ContentionResult, error) {
	if len(opt.Goroutines) == 0 {
		opt.Goroutines = DefaultContentionOptions().Goroutines
	}
	if opt.StoresPerThread <= 0 {
		opt.StoresPerThread = DefaultContentionOptions().StoresPerThread
	}
	if opt.FASELength <= 0 {
		opt.FASELength = DefaultContentionOptions().FASELength
	}
	res := &ContentionResult{Policy: opt.Policy}
	for _, g := range opt.Goroutines {
		row, err := storeScalingOnce(g, opt)
		if err != nil {
			return nil, err
		}
		if len(res.Rows) > 0 && res.Rows[0].StoresPerS > 0 {
			row.Speedup = row.StoresPerS / res.Rows[0].StoresPerS
		} else {
			row.Speedup = 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func storeScalingOnce(g int, opt ContentionOptions) (ContentionRow, error) {
	const regionWords = 1 << 13
	heapSize := (g + 2) * regionWords * 8 * 2
	if heapSize < 1<<22 {
		heapSize = 1 << 22
	}
	h := pmem.New(heapSize)
	opts := atlas.DefaultOptions()
	opts.Policy = opt.Policy
	opts.DisableTrace = true
	rt := atlas.NewRuntime(h, opts)
	threads := make([]*atlas.Thread, g)
	bases := make([]uint64, g)
	for i := range threads {
		th, err := rt.NewThread()
		if err != nil {
			return ContentionRow{}, err
		}
		threads[i] = th
		if bases[i], err = h.AllocLines(regionWords * 8); err != nil {
			return ContentionRow{}, err
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(th *atlas.Thread, base uint64) {
			defer wg.Done()
			for n := 0; n < opt.StoresPerThread; n++ {
				if n%opt.FASELength == 0 {
					th.FASEBegin()
				}
				off := uint64(n%regionWords) * 8
				th.Store64(base+off, uint64(n))
				if n%opt.FASELength == opt.FASELength-1 {
					th.FASEEnd()
				}
			}
			if th.InFASE() {
				th.FASEEnd()
			}
		}(threads[i], bases[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	rt.Close()
	row := ContentionRow{
		Goroutines: g,
		Stores:     int64(g) * int64(opt.StoresPerThread),
		Elapsed:    elapsed,
	}
	if s := elapsed.Seconds(); s > 0 {
		row.StoresPerS = float64(row.Stores) / s
	}
	return row, nil
}

// Table renders the sweep.
func (r *ContentionResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Store-throughput scaling (policy %v, wall clock)", r.Policy),
		Headers: []string{"goroutines", "stores", "elapsed", "stores/sec", "speedup"},
		Notes: []string{
			"wall-clock timing of the atlas→pmem substrate itself (not hwsim cycles)",
			fmt.Sprintf("GOMAXPROCS and core count bound attainable speedup (this run: %d goroutine sweep)", len(r.Rows)),
		},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.Goroutines),
			fmt.Sprintf("%d", row.Stores),
			row.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", row.StoresPerS),
			fx(row.Speedup),
		)
	}
	return t
}
