package harness

import (
	"strings"
	"testing"
)

// TestFlushOverlap pins the experiment's acceptance criteria: both runs
// write back the same lines, the pipelined one actually batches (epochs and
// multi-line batches appear) and reports a sane overlap fraction.
func TestFlushOverlap(t *testing.T) {
	opt := DefaultOverlapOptions()
	opt.Stores = 16 * 1024
	res, err := FlushOverlap(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sync.Flushed == 0 || res.Pipe.Flushed == 0 {
		t.Fatalf("no flush traffic: sync %+v pipe %+v", res.Sync, res.Pipe)
	}
	if res.Pipe.Flushed != res.Sync.Flushed {
		t.Fatalf("the two runs flushed different line counts: pipeline %d, sync %d", res.Pipe.Flushed, res.Sync.Flushed)
	}
	if res.Sync.StoresPerS <= 0 || res.Pipe.StoresPerS <= 0 {
		t.Fatalf("no throughput reported: sync %+v pipe %+v", res.Sync, res.Pipe)
	}
	if res.Pipe.Batches == 0 || res.Pipe.AvgBatch < 1 {
		t.Fatalf("pipeline did not batch: %+v", res.Pipe)
	}
	if res.Pipe.Overlap < 0 || res.Pipe.Overlap > 1 {
		t.Fatalf("overlap fraction %v out of [0,1]", res.Pipe.Overlap)
	}
	var histTotal int64
	for _, n := range res.BatchHist {
		histTotal += n
	}
	if histTotal == 0 {
		t.Fatalf("empty batch-size histogram: %v", res.BatchHist)
	}
	s := res.Table().String()
	for _, want := range []string{"pipeline", "stores/sec", "overlap", "histogram"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
}
