// Package atlas is a Go reimplementation of the runtime half of Atlas
// (Chakrabarti, Boehm, Bhandari, OOPSLA'14), the system the paper's
// software cache plugs into: failure-atomic sections (FASEs) with nesting,
// word-granularity undo logging for failure atomicity, crash recovery, and
// per-thread persistence policies that decide when dirty cache lines are
// written back to NVRAM.
//
// The paper instruments stores with an LLVM pass; here workloads call the
// Thread API explicitly (Store64/StoreBytes inside FASEBegin/FASEEnd),
// which delivers the identical event stream to the policy. Each Thread
// also records its events as a trace.ThreadSeq so a workload executed once
// can be replayed under every policy and cost model.
//
// Concurrency: each Thread owns its heap lines (single-writer-per-line;
// see the pmem package comment), their flags, its undo log, its policy and
// its flush sink, so the store → evict → flush path touches only
// thread-local state: no lock and no interlocked instruction. Runtime keeps
// its thread registry in a copy-on-write slice behind an atomic pointer:
// FlushStats and Trace walk a snapshot and never take a lock a mutator
// could be holding.
package atlas

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
	"nvmcache/internal/trace"
)

// Options configures a Runtime.
type Options struct {
	// Policy selects the persistence technique for every thread.
	Policy core.PolicyKind
	// Config tunes the policies (cache sizes, burst length, ...).
	Config core.Config
	// LogEntries is the per-thread undo log capacity in entries; it bounds
	// the number of distinct words written per FASE. Default 4096 (64 KiB
	// of log per thread).
	LogEntries int
	// RecordTrace enables per-thread trace recording (default on).
	DisableTrace bool
	// WrapSink, when non-nil, wraps each new thread's flush sink before the
	// persistence policy is attached. internal/faultinject interposes its
	// numbered crash points here; the wrapped sink must preserve FlushSink
	// semantics (a drain durably persists its lines before returning).
	WrapSink func(thread int32, sink core.FlushSink) core.FlushSink
	// UndoHook, when non-nil, is called at each undo-log persistence point
	// (see UndoOp) on the mutating goroutine, before the corresponding
	// durable write. A hook may panic to simulate a power failure at that
	// exact boundary; internal/faultinject drives crash-point exploration
	// through it.
	UndoHook func(op UndoOp)
}

// DefaultOptions uses the adaptive software cache with paper constants.
func DefaultOptions() Options {
	return Options{Policy: core.SoftCacheOnline, Config: core.DefaultConfig(), LogEntries: 1 << 12}
}

// Runtime owns a persistent heap and its threads.
type Runtime struct {
	heap *pmem.Heap
	opts Options

	// threads is a copy-on-write registry: readers (FlushStats, Trace,
	// Close) load the pointer and walk an immutable slice; NewThread copies
	// under mu and swaps the pointer. Mutator threads never touch it.
	threads atomic.Pointer[[]*Thread]
	mu      sync.Mutex // serializes NewThread and Close
	nextID  int32
}

// NewRuntime wraps an existing heap. Call Recover first when reattaching to
// a heap that may have crashed mid-FASE.
func NewRuntime(heap *pmem.Heap, opts Options) *Runtime {
	if opts.LogEntries <= 0 {
		opts.LogEntries = 1 << 12
	}
	rt := &Runtime{heap: heap, opts: opts}
	rt.threads.Store(&[]*Thread{})
	return rt
}

// Heap returns the underlying persistent heap.
func (rt *Runtime) Heap() *pmem.Heap { return rt.heap }

// snapshot returns the current immutable thread slice.
func (rt *Runtime) snapshot() []*Thread { return *rt.threads.Load() }

// NewThread registers a new mutator thread with its own software cache,
// undo log, flush sink and trace recorder. Threads are independent (no
// shared policy state), mirroring the paper's per-thread, lock-free cache
// design.
func (rt *Runtime) NewThread() (*Thread, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	id := rt.nextID
	rt.nextID++
	log, err := newUndoLog(rt.heap, rt.opts.LogEntries, rt.opts.UndoHook)
	if err != nil {
		return nil, fmt.Errorf("atlas: creating undo log for thread %d: %w", id, err)
	}
	var sink core.FlushSink = pmem.NewSink(rt.heap)
	if rt.opts.WrapSink != nil {
		sink = rt.opts.WrapSink(id, sink)
	}
	t := &Thread{
		id:   id,
		rt:   rt,
		heap: rt.heap,
		log:  log,
		sink: sink,
	}
	t.policy = core.NewPolicy(rt.opts.Policy, rt.opts.Config, sink)
	if !rt.opts.DisableTrace {
		t.builder = trace.NewBuilder(id)
		t.recording = true
	}
	old := rt.snapshot()
	next := make([]*Thread, len(old)+1)
	copy(next, old)
	next[len(old)] = t
	rt.threads.Store(&next)
	return t, nil
}

// Close finishes every thread: residual dirty state is drained so a clean
// shutdown is durable. The threads themselves must have stopped mutating.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.snapshot() {
		t.finish()
	}
}

// Trace returns the recorded multi-thread trace (nil sequences are skipped
// for threads created after DisableTrace). Each call returns an
// independent snapshot of everything recorded so far — a FASE still open
// at the call is included as a sealed section of the snapshot — and
// recording continues unaffected, so Trace may be called repeatedly
// (mid-session or after Close). The threads must be quiescent (between
// stores) during the call; Trace itself takes no lock a mutator could
// contend on.
func (rt *Runtime) Trace() *trace.Trace {
	threads := rt.snapshot()
	seqs := make([]*trace.ThreadSeq, 0, len(threads))
	for _, t := range threads {
		if t.builder != nil {
			seqs = append(seqs, t.builder.Snapshot())
		}
	}
	return trace.NewTrace(seqs...)
}

// FlushStats sums the flush counters of all threads. Safe to call at any
// time, including while mutators are storing: it reads the atomics each
// sink publishes at FASE end and the registry walk is lock-free. A thread's
// evictions in the FASE it is running are not in the sum yet, so the total
// is monotone and lags each thread by at most one FASE.
func (rt *Runtime) FlushStats() core.FlushStats {
	var total core.FlushStats
	for _, t := range rt.snapshot() {
		total = total.Add(t.sink.Stats())
	}
	return total
}

// Thread is one mutator's handle: all persistent stores of one goroutine
// go through exactly one Thread. A Thread is not safe for concurrent use,
// and distinct Threads must write disjoint cache lines (the
// single-writer-per-line discipline pmem's lock-free data plane relies
// on).
type Thread struct {
	id        int32
	rt        *Runtime
	heap      *pmem.Heap
	policy    core.Policy
	sink      core.FlushSink
	builder   *trace.Builder
	recording bool
	log       *undoLog
	depth     int
	stores    int64
	finished  bool
}

// ID returns the thread id.
func (t *Thread) ID() int32 { return t.id }

// Heap returns the runtime's persistent heap.
func (t *Thread) Heap() *pmem.Heap { return t.heap }

// FASEBegin enters a failure-atomic section. Sections nest; only the
// outermost pair delimits the atomicity and flush boundary, as in Atlas.
func (t *Thread) FASEBegin() {
	t.depth++
	if t.depth == 1 {
		t.log.begin()
		t.policy.FASEBegin()
		if t.recording {
			t.builder.Begin()
		}
	}
}

// FASEEnd leaves a section. Closing the outermost level drains the policy
// (persisting every line written in the FASE) and then commits and clears
// the undo log, making the FASE durable.
func (t *Thread) FASEEnd() {
	if t.depth == 0 {
		return
	}
	t.depth--
	if t.depth > 0 {
		return
	}
	t.policy.FASEEnd()
	t.log.commit()
	if t.recording {
		t.builder.End()
	}
}

// FASEAbort abandons the current FASE (all nesting levels) and rolls the
// heap back to its state at the outermost FASEBegin, using the same undo
// entries crash recovery would apply. The persistence policy is drained
// first so the rollback's persists land last and the durable view also
// reflects the pre-FASE state. It returns an error when the undo log
// overflowed during the FASE, in which case the rollback is incomplete
// (exactly as it would be after a crash; see LogEntries).
func (t *Thread) FASEAbort() error {
	if t.depth == 0 {
		return nil
	}
	t.depth = 0
	t.policy.FASEEnd()
	dropped := t.log.rollback()
	if t.recording {
		t.builder.End()
	}
	if dropped > 0 {
		return fmt.Errorf("atlas: abort rollback incomplete: %d undo entries were dropped", dropped)
	}
	return nil
}

// InFASE reports whether the thread is inside a section.
func (t *Thread) InFASE() bool { return t.depth > 0 }

// FlushStats returns this thread's flush counters (async, drained,
// barriers): exact when the owner calls it between FASEs — the sink
// publishes a FASE's eviction count at the FASE's drain — and one FASE
// behind, at most, for any other caller.
func (t *Thread) FlushStats() core.FlushStats { return t.sink.Stats() }

// Stores returns the number of persistent stores issued.
func (t *Thread) Stores() int64 { return t.stores }

// Store64 performs a persistent store of one 64-bit word as a single-entry
// protocol: one bounds check, the volatile write (returning the old value
// in the same heap access) with its plain flag store, the undo record, and
// the policy notify — no lock anywhere on the path.
//
// Ordering note: the volatile write lands before the undo record is
// durable, which is safe in this model because the new value can only
// reach the durable view through a line flush, and every flush of this
// line is issued by this thread's policy at or after the notify below —
// by which point the undo record (written through by record) is already
// durable. A store outside any FASE is treated as a singleton FASE (Atlas
// flushes such "durable by next barrier" stores promptly).
func (t *Thread) Store64(addr uint64, v uint64) {
	implicit := t.depth == 0
	if implicit {
		t.FASEBegin()
	}
	old := t.heap.Store64(addr, v)
	t.log.record(addr, old)
	t.noteStore(addr, 8)
	if implicit {
		t.FASEEnd()
	}
}

// StoreBytes performs a persistent store of an arbitrary byte range:
// bounds-checked once up front, old contents write-ahead-logged word by
// word, then the byte write and the policy notify. The logged word range
// is clamped to the heap (ReadWordClamped), so a store ending in the
// heap's final bytes does not read past the end.
func (t *Thread) StoreBytes(addr uint64, b []byte) {
	if len(b) == 0 {
		return
	}
	t.heap.CheckRange(addr, uint64(len(b)))
	implicit := t.depth == 0
	if implicit {
		t.FASEBegin()
	}
	// Log the covered words (8-byte granules aligned down; the final word
	// may overhang the stored range but never the heap).
	start := addr &^ 7
	end := addr + uint64(len(b))
	for w := start; w < end; w += 8 {
		t.log.record(w, t.heap.ReadWordClamped(w))
	}
	t.heap.WriteBytes(addr, b)
	t.noteStore(addr, uint64(len(b)))
	if implicit {
		t.FASEEnd()
	}
}

// StorePrivate64 stores one word of memory that is private to the current
// FASE, without undo-logging it. Private means all three of: the memory was
// allocated inside this FASE; it owns its cache lines whole (no logged word
// shares a line with it); and no durable pointer reaches it until a logged
// store of this same FASE publishes it. Rollback — crash recovery or
// FASEAbort — then undoes the publishing store, which makes the memory
// unreachable again, so its old contents are never needed and no pre-image
// is recorded. Everything else is Store64's: the line is marked dirty,
// announced to the policy and trace, and drained at FASE end, so the
// contents are durable before the commit that makes the publication stick.
// "Allocated inside this FASE" holds across a crash for an allocator whose
// free set after recovery is whatever the recovered roots do not reach
// (mdb's page allocator): the crashed FASE's memory is then free again, and
// nothing reachable is handed out. It panics outside a FASE: there is no
// FASE for the memory to be private to.
func (t *Thread) StorePrivate64(addr uint64, v uint64) {
	if t.depth == 0 {
		panic("atlas: StorePrivate64 outside a FASE")
	}
	t.heap.WriteUint64(addr, v)
	t.noteRun(trace.LineOf(addr), 1)
}

// StoreAtomic64 overwrites one aligned word in place, without undo-logging
// it. It is for a word that is a complete state on its own whether it
// holds its old or its new value: an aligned 8-byte store is failure-atomic,
// so a crash leaves the word old or new, never torn, and no pre-image is
// needed. The word is independent of the FASE's other stores — rollback
// (crash recovery or FASEAbort) does not undo it, and a crash mid-FASE may
// find any subset of such words new — so a FASE made only of these gives
// each word, not the FASE, all-or-nothing. Everything else is Store64's:
// the line is dirty-marked, announced to the policy and trace, and
// drained at FASE end, so the word is durable once FASEEnd returns.
// Readers on other goroutines may load the word meanwhile with
// pmem.Heap.LoadAtomic64.
// It panics outside a FASE, which is where the drain comes from.
func (t *Thread) StoreAtomic64(addr uint64, v uint64) {
	if t.depth == 0 {
		panic("atlas: StoreAtomic64 outside a FASE")
	}
	t.heap.StoreAtomic64(addr, v)
	t.noteRun(trace.LineOf(addr), 1)
}

// CopyPrivate copies n bytes from src to dst, where dst is private to the
// current FASE (see StorePrivate64), with one memmove and no undo records.
// The store events are those of a Store64 loop over the destination words,
// in address order, delivered as one run per destination line
// (core.Policy.StoreRun): Stores() counts every word and the trace sees
// every word, so sampled bursts, chosen cache sizes and flush counts do
// not depend on which of the two a caller uses. It panics outside a FASE.
func (t *Thread) CopyPrivate(dst, src, n uint64) {
	if t.depth == 0 {
		panic("atlas: CopyPrivate outside a FASE")
	}
	if n == 0 {
		return
	}
	t.heap.CopyWithin(dst, src, n)
	end := dst + n
	for w := dst &^ 7; w < end; {
		line := trace.LineOf(w)
		next := min(line.ByteAddr()+trace.LineSize, end)
		words := int((next - w + 7) / 8)
		t.noteRun(line, words)
		w += uint64(words) * 8
	}
}

// Load64 reads a word (reads are not instrumented; the write-combining
// cache considers only writes, Section III-A).
func (t *Thread) Load64(addr uint64) uint64 { return t.heap.ReadUint64(addr) }

// LoadBytes reads a byte range.
func (t *Thread) LoadBytes(addr, n uint64) []byte { return t.heap.ReadBytes(addr, n) }

func (t *Thread) noteStore(addr, size uint64) {
	first := addr >> trace.LineShift
	last := (addr + size - 1) >> trace.LineShift
	for l := first; l <= last; l++ {
		t.noteRun(trace.LineAddr(l), 1)
	}
}

// noteRun counts n store events to one line and announces them: to the
// policy as one run, to the trace one by one.
func (t *Thread) noteRun(line trace.LineAddr, n int) {
	t.stores += int64(n)
	t.policy.StoreRun(line, n)
	if t.recording {
		for range n {
			t.builder.Store(line)
		}
	}
}

func (t *Thread) finish() {
	if t.finished {
		return
	}
	for t.depth > 0 {
		t.FASEEnd()
	}
	t.policy.Finish()
	t.finished = true
}

// Policy exposes the thread's policy (for AdaptReport inspection).
func (t *Thread) Policy() core.Policy { return t.policy }

// SetRecording toggles trace recording mid-run, outside any FASE. Workload
// warm-up phases (for example pre-populating a store before the measured
// run) switch recording off so the trace reflects steady-state behaviour.
// It has no effect on threads created with DisableTrace.
func (t *Thread) SetRecording(on bool) {
	if t.builder == nil || t.depth > 0 {
		return
	}
	t.recording = on
}
