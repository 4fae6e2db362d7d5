package atlas

import (
	"strings"
	"testing"

	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
)

// Failure-injection tests: exhaust the undo log, the registry and the
// heap, and check the runtime degrades the way its documentation promises.

func TestUndoLogOverflowDropsButKeepsRunning(t *testing.T) {
	h := pmem.New(1 << 20)
	opts := DefaultOptions()
	opts.Policy = core.Lazy
	opts.LogEntries = 8 // tiny log: overflow quickly
	rt := NewRuntime(h, opts)
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	base, _ := h.AllocLines(64 * 64)
	th.FASEBegin()
	for i := uint64(0); i < 64; i++ { // 64 distinct words > 8 entries
		th.Store64(base+i*8, i)
	}
	th.FASEEnd()
	// Data still written and durable despite the truncated log.
	for i := uint64(0); i < 64; i++ {
		if th.Load64(base+i*8) != i {
			t.Fatalf("word %d lost", i)
		}
	}
	if th.log.dropped != 64-8 {
		t.Fatalf("dropped = %d, want %d", th.log.dropped, 64-8)
	}
	// Within-capacity rollback still works on the next FASE.
	th.FASEBegin()
	th.Store64(base, 999)
	h.Crash()
	if _, err := Recover(h); err != nil {
		t.Fatal(err)
	}
	if got := h.ReadUint64(base); got != 0 {
		t.Fatalf("rollback after overflow FASE: %d", got)
	}
}

// TestUndoLogDedupesEachWordOnce: a word is logged once per FASE however
// often it is stored, on both sides of the switch from the scanned array
// to the map (a handful of words, then more than smallDedup), and the next
// FASE logs it again.
func TestUndoLogDedupesEachWordOnce(t *testing.T) {
	records := 0
	opts := DefaultOptions()
	opts.UndoHook = func(op UndoOp) {
		if op == UndoRecord {
			records++
		}
	}
	th, err := NewRuntime(pmem.New(1<<20), opts).NewThread()
	if err != nil {
		t.Fatal(err)
	}
	base, _ := th.Heap().AllocLines(64 * 8)
	for _, words := range []uint64{smallDedup - 3, smallDedup, 3 * smallDedup, smallDedup - 3} {
		records = 0
		th.FASEBegin()
		for pass := uint64(0); pass < 3; pass++ {
			for i := uint64(0); i < words; i++ {
				th.Store64(base+8*i, pass)
			}
		}
		th.FASEEnd()
		if records != int(words) {
			t.Errorf("%d words stored three times each: %d undo records", words, records)
		}
	}
}

func TestUndoLogCapacityBoundary(t *testing.T) {
	h := pmem.New(1 << 20)
	opts := DefaultOptions()
	opts.LogEntries = 4
	rt := NewRuntime(h, opts)
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	base, _ := h.AllocLines(64 * 8)
	th.FASEBegin()
	for i := uint64(0); i < 4; i++ { // exactly at capacity
		th.Store64(base+i*8, i+1)
	}
	h.Crash()
	if _, err := Recover(h); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if got := h.ReadUint64(base + i*8); got != 0 {
			t.Fatalf("word %d not rolled back: %d", i, got)
		}
	}
}

func TestHeapExhaustionSurfacesError(t *testing.T) {
	h := pmem.New(1 << 16) // tiny heap
	rt := NewRuntime(h, DefaultOptions())
	if _, err := rt.NewThread(); err == nil {
		// The 4096-entry default log does not fit a 64 KiB heap.
		t.Fatal("NewThread succeeded on an exhausted heap")
	} else if !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestManyThreadsRegistryGrowth(t *testing.T) {
	h := pmem.New(1 << 24)
	opts := DefaultOptions()
	opts.LogEntries = 16
	rt := NewRuntime(h, opts)
	for i := 0; i < 64; i++ {
		if _, err := rt.NewThread(); err != nil {
			t.Fatalf("thread %d: %v", i, err)
		}
	}
	// All 64 logs recoverable.
	rep, err := Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogsScanned != 64 {
		t.Fatalf("scanned %d logs", rep.LogsScanned)
	}
}

// TestRecoveredLogsAreReused: recovery retires every registered undo log,
// and the next incarnation's threads claim those of sufficient capacity
// instead of growing the registry. A claimed log guards its new thread's
// FASEs like a fresh one.
func TestRecoveredLogsAreReused(t *testing.T) {
	h := pmem.New(1 << 22)
	opts := DefaultOptions()
	rt := NewRuntime(h, opts)
	for i := 0; i < 2; i++ {
		if _, err := rt.NewThread(); err != nil {
			t.Fatal(err)
		}
	}
	h.Crash()
	if _, err := Recover(h); err != nil {
		t.Fatal(err)
	}
	th, err := NewRuntime(h, opts).NewThread()
	if err != nil {
		t.Fatal(err)
	}
	bigger := opts
	bigger.LogEntries = 2 * opts.LogEntries
	if _, err := NewRuntime(h, bigger).NewThread(); err != nil {
		t.Fatal(err)
	}
	if n := h.ReadUint64(h.Meta()); n != 3 {
		t.Fatalf("%d logs registered, want 3: two claimed, one too small for the bigger thread", n)
	}
	a, _ := h.Alloc(8)
	th.Store64(a, 1)
	th.FASEBegin()
	th.Store64(a, 2)
	h.Crash()
	if _, err := Recover(h); err != nil {
		t.Fatal(err)
	}
	if got := h.ReadUint64(a); got != 1 {
		t.Fatalf("a = %d after a crash mid-FASE on a claimed log, want 1", got)
	}
}

func TestRecoverCorruptRegistryCount(t *testing.T) {
	h := pmem.New(1 << 20)
	rt := NewRuntime(h, DefaultOptions())
	if _, err := rt.NewThread(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the registry count beyond its capacity.
	reg := h.Meta()
	h.WriteUint64(reg, 1<<40)
	h.Persist(reg, 8)
	if _, err := Recover(h); err == nil {
		t.Fatal("Recover accepted a corrupt registry")
	}
}

func TestDoubleCrashDoubleRecovery(t *testing.T) {
	h := pmem.New(1 << 20)
	opts := DefaultOptions()
	opts.Policy = core.Lazy
	rt := NewRuntime(h, opts)
	th, _ := rt.NewThread()
	a, _ := h.Alloc(8)

	th.FASEBegin()
	th.Store64(a, 1)
	th.FASEEnd()

	th.FASEBegin()
	th.Store64(a, 2)
	h.Crash()
	if _, err := Recover(h); err != nil {
		t.Fatal(err)
	}
	// Crash again immediately (during "restart"): state must be stable.
	h.Crash()
	if _, err := Recover(h); err != nil {
		t.Fatal(err)
	}
	if got := h.ReadUint64(a); got != 1 {
		t.Fatalf("value after double crash: %d", got)
	}
}

func TestRecoverAfterCleanShutdownIsNoop(t *testing.T) {
	h := pmem.New(1 << 20)
	rt := NewRuntime(h, DefaultOptions())
	th, _ := rt.NewThread()
	a, _ := h.Alloc(8)
	th.FASEBegin()
	th.Store64(a, 5)
	th.FASEEnd()
	rt.Close()
	rep, err := Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FASEsRolledBack != 0 || rep.WordsRestored != 0 {
		t.Fatalf("clean shutdown rolled back: %+v", rep)
	}
}

func TestSetRecordingGuards(t *testing.T) {
	h := pmem.New(1 << 20)
	rt := NewRuntime(h, DefaultOptions())
	th, _ := rt.NewThread()
	a, _ := h.Alloc(8)
	th.FASEBegin()
	th.SetRecording(false) // inside a FASE: must be refused
	th.Store64(a, 1)
	th.FASEEnd()
	th.SetRecording(false)
	th.Store64(a, 2) // not recorded
	th.SetRecording(true)
	th.Store64(a, 3)
	rt.Close()
	tr := rt.Trace()
	if got := tr.Threads[0].NumWrites(); got != 2 {
		t.Fatalf("recorded %d writes, want 2 (pause honored, in-FASE toggle refused)", got)
	}
}

func TestDisableTraceThreads(t *testing.T) {
	h := pmem.New(1 << 20)
	opts := DefaultOptions()
	opts.DisableTrace = true
	rt := NewRuntime(h, opts)
	th, _ := rt.NewThread()
	a, _ := h.Alloc(8)
	th.Store64(a, 1)
	th.SetRecording(true) // no-op without a builder
	th.Store64(a, 2)
	rt.Close()
	if got := len(rt.Trace().Threads); got != 0 {
		t.Fatalf("untraced runtime produced %d sequences", got)
	}
}

func TestFASEAbortRollsBack(t *testing.T) {
	h := pmem.New(1 << 20)
	rt := NewRuntime(h, DefaultOptions())
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	base, _ := h.AllocLines(64 * 8)
	th.FASEBegin()
	for i := uint64(0); i < 16; i++ {
		th.Store64(base+i*8, i+1)
	}
	th.FASEEnd()

	th.FASEBegin()
	for i := uint64(0); i < 16; i++ {
		th.Store64(base+i*8, 1000+i)
	}
	if err := th.FASEAbort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if th.InFASE() {
		t.Fatal("still in FASE after abort")
	}
	for i := uint64(0); i < 16; i++ {
		if got := th.Load64(base + i*8); got != i+1 {
			t.Fatalf("word %d = %d after abort, want %d", i, got, i+1)
		}
		// The rollback is durable too: a crash right after the abort must
		// also expose the pre-FASE values.
		if got := h.PersistedUint64(base + i*8); got != i+1 {
			t.Fatalf("persisted word %d = %d after abort, want %d", i, got, i+1)
		}
	}
	// The thread remains usable: the next FASE commits normally.
	th.FASEBegin()
	th.Store64(base, 77)
	th.FASEEnd()
	if got := th.Load64(base); got != 77 {
		t.Fatalf("post-abort FASE lost: %d", got)
	}
	// And recovery after the abort has nothing to roll back.
	h.Crash()
	rep, err := Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FASEsRolledBack != 0 {
		t.Fatalf("abort left an active log: %+v", rep)
	}
	if got := h.ReadUint64(base); got != 77 {
		t.Fatalf("value after crash: %d", got)
	}
}

func TestFASEAbortOverflowedLogReportsError(t *testing.T) {
	h := pmem.New(1 << 20)
	opts := DefaultOptions()
	opts.LogEntries = 4
	rt := NewRuntime(h, opts)
	th, _ := rt.NewThread()
	base, _ := h.AllocLines(64 * 8)
	th.FASEBegin()
	for i := uint64(0); i < 16; i++ { // 16 words > 4 entries
		th.Store64(base+i*8, i+1)
	}
	if err := th.FASEAbort(); err == nil {
		t.Fatal("abort of an overflowed FASE must report incompleteness")
	}
	// A fresh within-capacity FASE aborts cleanly again.
	th.FASEBegin()
	th.Store64(base, 42)
	if err := th.FASEAbort(); err != nil {
		t.Fatalf("abort after overflow FASE: %v", err)
	}
}

func TestFASEAbortOutsideFASEIsNoop(t *testing.T) {
	h := pmem.New(1 << 20)
	rt := NewRuntime(h, DefaultOptions())
	th, _ := rt.NewThread()
	if err := th.FASEAbort(); err != nil {
		t.Fatalf("abort outside FASE: %v", err)
	}
}
