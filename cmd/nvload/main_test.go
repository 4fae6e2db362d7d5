package main

import (
	"testing"

	"nvmcache/internal/kv"
	"nvmcache/internal/nvclient"
)

// TestRunFlushRatio: the flush ratio nvload prints from a server-side
// delta is the run's own — the flushes the run added over the ops it added
// — not the difference of two cumulative flush_ratio gauges, which here
// would even have the wrong sign. A run that committed nothing reads 0.
func TestRunFlushRatio(t *testing.T) {
	snapshot := func(ops uint64, flushes int64) *nvclient.Stats {
		st := kv.ShardStats{BatchedOps: ops, DrainedFlushes: flushes}
		s, err := nvclient.ParseStats([]string{st.String(), kv.Totals([]kv.ShardStats{st}).String()})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// A preload of 10 ops at 10 lines each, then a run of 100 ops at 1 line.
	before, after := snapshot(10, 100), snapshot(110, 200)
	if got := after.Diff(before)["total.flush_ratio"]; got != 1 {
		t.Errorf("run flush ratio = %v, want 1", got)
	}
	if got := after.Diff(after)["total.flush_ratio"]; got != 0 {
		t.Errorf("run with no ops: flush ratio = %v, want 0", got)
	}
}
