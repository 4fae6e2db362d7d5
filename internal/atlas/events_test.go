package atlas

import (
	"reflect"
	"testing"

	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
	"nvmcache/internal/trace"
)

// TestEventsDecomposeDrain pins the event seam on one thread: each undo-log
// step of a FASE is reported with the thread's id and its word, a FASE-end
// drain of n lines becomes n drain-line events and one drain-done, and each
// line still reaches the heap's sink as a drained line, so the thread's
// flush counts are those of the same FASE without Events. Without Events
// the thread's sink is the heap's own: nothing is interposed. (The
// flush-line site is swept under the eager policy in internal/faultinject.)
func TestEventsDecomposeDrain(t *testing.T) {
	type event struct {
		site   Site
		thread int
		arg    uint64
	}
	var got []event
	opts := DefaultOptions()
	opts.Policy = core.Lazy
	opts.Events = func(site Site, thread int, arg uint64) { got = append(got, event{site, thread, arg}) }
	rt := NewRuntime(pmem.New(1<<20), opts)
	rt.NewThread() // thread 0 stays idle
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	base, _ := th.Heap().AllocLines(3 * trace.LineSize)
	th.FASEBegin()
	for i := uint64(0); i < 3; i++ {
		th.Store64(base+i*trace.LineSize, i+1)
	}
	th.FASEEnd()

	want := []event{{SiteUndoBegin, 1, 0}}
	for i := uint64(0); i < 3; i++ {
		w := base + i*trace.LineSize
		want = append(want, event{SiteUndoRecord, 1, w}, event{SiteUndoPublish, 1, w})
	}
	for i := uint64(0); i < 3; i++ {
		want = append(want, event{SiteDrainLine, 1, uint64(trace.LineOf(base + i*trace.LineSize))})
	}
	want = append(want, event{SiteDrainDone, 1, 3}, event{SiteUndoCommit, 1, 3})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lazy FASE of 3 lines:\n got %v\nwant %v", got, want)
	}
	if st := th.FlushStats(); st.Async != 0 || st.Drained != 3 || st.Barriers != 0 {
		t.Errorf("inner sink stats = %+v, want the 3 drained lines the FASE counts without Events", st)
	}

	plain, err := NewRuntime(pmem.New(1<<20), DefaultOptions()).NewThread()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.sink.(*pmem.Sink); !ok {
		t.Errorf("without Events the thread's sink is a %T, want the heap's *pmem.Sink", plain.sink)
	}
}
