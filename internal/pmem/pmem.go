// Package pmem emulates byte-addressable non-volatile memory. The paper
// emulates NVRAM with DRAM-backed tmpfs; this package goes one step
// further and models the *volatility boundary* explicitly: every heap has a
// volatile view (the CPU-cache-resident state the program reads and
// writes) and a persisted view (what NVRAM would hold after a power
// failure). A cache-line flush copies one line from the volatile view to
// the persisted view; Crash discards the volatile view. That makes crash
// consistency directly testable, which tmpfs alone cannot do.
//
// Addresses are offsets into the heap. Offset 0 holds a 64-byte header
// (root pointer, allocator cursor, runtime-metadata pointer), so valid
// object addresses start at HeaderSize.
//
// # Concurrency architecture
//
// Heap is split into an owner-private data plane and a lock-striped seam
// for the one thing a second goroutine may do to it, so the store→flush hot
// path executes no lock and no interlocked instruction:
//
//   - Data plane: the volatile and persisted byte arrays plus one flag byte
//     per line. Correctness rests on the single-writer-per-line discipline:
//     every cache line above the header is owned by at most one goroutine at
//     a time (an atlas.Thread or a kv shard writer), and only the owner
//     stores to it, flushes it, captures it, or touches its flag — all with
//     plain loads and stores after a bounds check. The flag means "stored
//     since the last flush or capture": a store sets it, FlushLine copies
//     the line to the durable view and clears it, and CaptureLine — the
//     pipeline's "clwb issued" point, which runs on the owner — clears it
//     too. Stable (committed, unowned) lines may be read by anyone; that is
//     how kv snapshot readers work.
//   - Stripes: NumStripes locks keyed by line address guard the durable
//     bytes against the only cross-goroutine writer, the flush pipeline's
//     worker applying captured images (ApplyCaptured), and against batched
//     FlushLines; PersistedUint64 takes the stripe so it can be read while
//     a worker applies. ApplyCaptured copies bytes and never touches a
//     flag, so no location is shared between the owner's path and the
//     worker's: a line re-stored between its capture and the apply stays
//     flagged by that store. A line with an image in flight must not be
//     flushed directly or written through by its owner until the image has
//     been applied (the pipeline's epoch await is that ordering), or the
//     apply would put older bytes over newer ones.
//   - Header plane: the root/alloc/meta words of line 0 are guarded by a
//     dedicated mutex and written through to the persisted view (they are
//     never dirty).
//
// Whole-heap operations — Crash, PersistAll, DirtyLines, DirtyCount,
// CheckConsistency — require the data plane to be externally quiesced (no
// goroutine mid-store, every captured image applied or abandoned), with a
// happens-before edge from each owner's last access (a join, a channel, a
// Close); they then take every stripe in index order, which also excludes a
// straggling ApplyCaptured.
//
// SerialHeap (serial.go) is the original coarse-mutex implementation, kept
// as a strictly-serialized oracle for differential tests.
package pmem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"nvmcache/internal/trace"
)

// HeaderSize is the reserved heap header: root pointer at offset 0,
// allocation cursor at offset 8, runtime metadata pointer at offset 16,
// auxiliary subsystem pointer at offset 24.
const HeaderSize = trace.LineSize

const (
	rootOff  = 0
	allocOff = 8
	metaOff  = 16
	auxOff   = 24
)

// NumStripes is the number of durable-view lock stripes. Lines are spread
// over stripes by a multiplicative (Fibonacci) hash rather than line mod
// NumStripes: threads typically own contiguous, identically-sized regions,
// and a modulo mapping would send every thread's k-th line to the same
// stripe — lockstep mutators would then convoy on one stripe after
// another. The hash decorrelates equal offsets in different regions.
const (
	NumStripes  = 64
	stripeShift = 58 // 64 - log2(NumStripes)
	fibMix      = 0x9e3779b97f4a7c15
)

// stripe is one lock of the durable-view seam: it guards the durable bytes
// of the lines that hash to it against writers other than the lines' owner.
type stripe struct {
	mu sync.Mutex
	// acquired counts lock acquisitions; it is mutated only under mu.
	acquired int64
	// contended counts acquisitions that found the lock held (updated
	// before blocking, hence atomic).
	contended atomic.Int64

	_ [40]byte // pad to 64 bytes: keep stripes off each other's cache lines
}

// lock acquires the stripe, counting contention.
func (st *stripe) lock() {
	if !st.mu.TryLock() {
		st.contended.Add(1)
		st.mu.Lock()
	}
	st.acquired++
}

// Heap is one emulated NVRAM region. Data-plane methods (reads, writes,
// line flushes) are lock-free over the byte arrays and safe for concurrent
// use under the single-writer-per-line discipline documented above;
// whole-heap methods additionally require quiescence.
type Heap struct {
	mem       []byte // volatile view: program reads and writes land here
	persisted []byte // durable view: updated only by line flushes
	// dirty holds one flag per line: 1 while the line was stored to since its
	// last flush or capture. dirty[l] is read and written only by line l's
	// owner, with plain accesses (whole-heap operations read it quiesced).
	dirty   []uint8
	hdr     sync.Mutex
	stripes [NumStripes]stripe
	crashes atomic.Int64
}

// New creates a heap of the given size (rounded up to a whole number of
// cache lines, minimum one line for the header).
func New(size int) *Heap {
	if size < HeaderSize {
		size = HeaderSize
	}
	if r := size % trace.LineSize; r != 0 {
		size += trace.LineSize - r
	}
	h := &Heap{
		mem:       make([]byte, size),
		persisted: make([]byte, size),
		dirty:     make([]uint8, size>>trace.LineShift),
	}
	binary.LittleEndian.PutUint64(h.mem[allocOff:], HeaderSize)
	copy(h.persisted[:HeaderSize], h.mem[:HeaderSize])
	return h
}

// Size returns the heap size in bytes.
func (h *Heap) Size() uint64 { return uint64(len(h.mem)) }

func (h *Heap) check(addr, n uint64) {
	if addr+n > uint64(len(h.mem)) || addr+n < addr {
		panic(fmt.Sprintf("pmem: access [%d,%d) outside heap of %d bytes", addr, addr+n, len(h.mem)))
	}
}

// CheckRange panics if [addr, addr+n) is not inside the heap; callers use
// it to validate a composite operation once up front.
func (h *Heap) CheckRange(addr, n uint64) { h.check(addr, n) }

func (h *Heap) stripeOf(line trace.LineAddr) *stripe {
	return &h.stripes[(uint64(line)*fibMix)>>stripeShift]
}

// markDirty flags the lines covering [addr, addr+n): plain stores, owner
// only.
func (h *Heap) markDirty(addr, n uint64) {
	if n == 0 {
		return
	}
	first := addr >> trace.LineShift
	last := (addr + n - 1) >> trace.LineShift
	for l := first; l <= last; l++ {
		h.dirty[l] = 1
	}
}

// flushLine copies one line to the durable view and clears its flag: plain
// loads and stores, owner only.
func (h *Heap) flushLine(line trace.LineAddr) {
	start := line.ByteAddr()
	h.check(start, trace.LineSize)
	copy(h.persisted[start:start+trace.LineSize], h.mem[start:start+trace.LineSize])
	h.dirty[line] = 0
}

// FlushLines persists a batch of lines grouped by stripe: each involved
// stripe lock is taken once per batch, which is the pmem side of the
// batched flush-pipeline seam. Semantically identical to calling flushLine
// on each element in order (later duplicates win — they copy the same
// volatile contents anyway), but safe against a concurrent ApplyCaptured of
// the same lines. It reads the volatile view and clears the lines' flags, so
// the lines' owner must be the caller or be stopped.
func (h *Heap) FlushLines(lines []trace.LineAddr) {
	for _, line := range lines {
		h.check(line.ByteAddr(), trace.LineSize)
	}
	var done [NumStripes]bool
	for i, line := range lines {
		si := (uint64(line) * fibMix) >> stripeShift
		if done[si] {
			continue
		}
		done[si] = true
		st := &h.stripes[si]
		st.lock()
		for _, l := range lines[i:] {
			if (uint64(l)*fibMix)>>stripeShift != si {
				continue
			}
			start := l.ByteAddr()
			copy(h.persisted[start:start+trace.LineSize], h.mem[start:start+trace.LineSize])
			h.dirty[l] = 0
		}
		st.mu.Unlock()
	}
}

// CaptureLine snapshots a line's current volatile contents into dst
// (len ≥ trace.LineSize) and clears the line's flag, with no locking: the
// caller must be the line's owner. This is the pipeline's "clwb issued"
// point — from here the image's journey to the durable view is the
// pipeline's responsibility, and a later store to the line flags it again.
// The snapshot can be persisted from any goroutine with ApplyCaptured.
func (h *Heap) CaptureLine(line trace.LineAddr, dst []byte) {
	start := line.ByteAddr()
	h.check(start, trace.LineSize)
	copy(dst[:trace.LineSize], h.mem[start:start+trace.LineSize])
	h.dirty[line] = 0
}

// ApplyCaptured persists previously captured line images: data holds
// len(lines) consecutive trace.LineSize-byte snapshots taken by
// CaptureLine. Like FlushLines, each involved stripe lock is taken once per
// batch. It touches neither the volatile view nor any line's flag — the
// capture already cleared it, and a store newer than the snapshot set it
// again — so it may run on any goroutine while the owner keeps storing.
// Applying a stale snapshot is safe under the runtime's write-cache
// protocol: any store newer than the snapshot re-inserted the line into its
// thread's write cache, so a fresher capture of the same line is guaranteed
// to follow before the owning FASE's epoch persists.
func (h *Heap) ApplyCaptured(lines []trace.LineAddr, data []byte) {
	if len(data) < len(lines)*trace.LineSize {
		panic(fmt.Sprintf("pmem: ApplyCaptured with %d lines but %d data bytes", len(lines), len(data)))
	}
	for _, line := range lines {
		h.check(line.ByteAddr(), trace.LineSize)
	}
	var done [NumStripes]bool
	for i, line := range lines {
		si := (uint64(line) * fibMix) >> stripeShift
		if done[si] {
			continue
		}
		done[si] = true
		st := &h.stripes[si]
		st.lock()
		for j := i; j < len(lines); j++ {
			l := lines[j]
			if (uint64(l)*fibMix)>>stripeShift != si {
				continue
			}
			start := l.ByteAddr()
			copy(h.persisted[start:start+trace.LineSize], data[j*trace.LineSize:(j+1)*trace.LineSize])
		}
		st.mu.Unlock()
	}
}

// persistHeaderLocked writes line 0 through to the durable view. Caller
// holds hdr.
func (h *Heap) persistHeaderLocked() {
	copy(h.persisted[:HeaderSize], h.mem[:HeaderSize])
}

func (h *Heap) allocLocked(n uint64) (uint64, error) {
	cur := binary.LittleEndian.Uint64(h.mem[allocOff:])
	if r := cur % 8; r != 0 {
		cur += 8 - r
	}
	if cur+n > uint64(len(h.mem)) || cur+n < cur {
		return 0, fmt.Errorf("pmem: out of memory allocating %d bytes (cursor %d, heap %d)", n, cur, len(h.mem))
	}
	binary.LittleEndian.PutUint64(h.mem[allocOff:], cur+n)
	h.persistHeaderLocked()
	return cur, nil
}

// Alloc carves n bytes (8-byte aligned) out of the heap with a bump
// allocator and returns the address. The allocator cursor is persisted
// immediately so allocations survive crashes (recoverable allocation à la
// Makalu is out of scope; see DESIGN.md). Alloc fails when the heap is
// exhausted.
func (h *Heap) Alloc(n uint64) (uint64, error) {
	h.hdr.Lock()
	defer h.hdr.Unlock()
	return h.allocLocked(n)
}

// AllocLines allocates n bytes aligned to a cache-line boundary, so the
// object's lines are not shared with neighbours.
func (h *Heap) AllocLines(n uint64) (uint64, error) {
	h.hdr.Lock()
	defer h.hdr.Unlock()
	aligned := (binary.LittleEndian.Uint64(h.mem[allocOff:]) + 7) &^ 7
	if r := aligned % trace.LineSize; r != 0 {
		if _, err := h.allocLocked(trace.LineSize - r); err != nil { // pad
			return 0, err
		}
	}
	return h.allocLocked(n)
}

// SetRoot stores and persists the root object pointer the program uses to
// find its data after a restart.
func (h *Heap) SetRoot(addr uint64) {
	h.hdr.Lock()
	defer h.hdr.Unlock()
	binary.LittleEndian.PutUint64(h.mem[rootOff:], addr)
	h.persistHeaderLocked()
}

// Root returns the persistent root pointer.
func (h *Heap) Root() uint64 {
	h.hdr.Lock()
	defer h.hdr.Unlock()
	return binary.LittleEndian.Uint64(h.mem[rootOff:])
}

// SetMeta stores and persists the runtime-metadata pointer (the Atlas
// runtime keeps its crash-recovery log registry there, separate from the
// application's root object).
func (h *Heap) SetMeta(addr uint64) {
	h.hdr.Lock()
	defer h.hdr.Unlock()
	binary.LittleEndian.PutUint64(h.mem[metaOff:], addr)
	h.persistHeaderLocked()
}

// Meta returns the runtime-metadata pointer (0 when unset).
func (h *Heap) Meta() uint64 {
	h.hdr.Lock()
	defer h.hdr.Unlock()
	return binary.LittleEndian.Uint64(h.mem[metaOff:])
}

// SetAux stores and persists the auxiliary subsystem pointer: a fourth
// header word for optional durable structures layered on a heap (the kv
// checkpoint directory lives there). Heaps created before the word existed
// read it as 0, which every consumer must treat as "subsystem absent".
func (h *Heap) SetAux(addr uint64) {
	h.hdr.Lock()
	defer h.hdr.Unlock()
	binary.LittleEndian.PutUint64(h.mem[auxOff:], addr)
	h.persistHeaderLocked()
}

// Aux returns the auxiliary subsystem pointer (0 when unset).
func (h *Heap) Aux() uint64 {
	h.hdr.Lock()
	defer h.hdr.Unlock()
	return binary.LittleEndian.Uint64(h.mem[auxOff:])
}

// WriteUint64 writes v at addr in the volatile view and flags the line.
// The caller must own the line.
func (h *Heap) WriteUint64(addr uint64, v uint64) {
	h.check(addr, 8)
	binary.LittleEndian.PutUint64(h.mem[addr:], v)
	h.markDirty(addr, 8)
}

// ReadUint64 reads from the volatile view. Lock-free: the caller must own
// the line or know it is stable (committed and unowned).
func (h *Heap) ReadUint64(addr uint64) uint64 {
	h.check(addr, 8)
	return binary.LittleEndian.Uint64(h.mem[addr:])
}

// ReadWordClamped reads the 64-bit word at addr, tolerating a word that
// overhangs the end of the heap: the missing high bytes read as zero. The
// undo log uses it to record the old value of the heap's final word when
// an unaligned store ends there.
func (h *Heap) ReadWordClamped(addr uint64) uint64 {
	if addr+8 <= uint64(len(h.mem)) {
		return binary.LittleEndian.Uint64(h.mem[addr:])
	}
	h.check(addr, 1)
	var buf [8]byte
	copy(buf[:], h.mem[addr:])
	return binary.LittleEndian.Uint64(buf[:])
}

// Store64 is the hot-path persistent store primitive: one bounds check,
// read the old value, apply the volatile write, flag the line — no lock and
// no interlocked instruction. It returns the overwritten value so the
// caller can undo-log it. The caller must own the line.
func (h *Heap) Store64(addr uint64, v uint64) (old uint64) {
	h.check(addr, 8)
	old = binary.LittleEndian.Uint64(h.mem[addr:])
	binary.LittleEndian.PutUint64(h.mem[addr:], v)
	h.markDirty(addr, 8)
	return old
}

// Write64Through writes v to both the volatile and durable views without
// touching the line's flag: a write-through store. The undo log uses it so
// that write-ahead records are durable the instant they are written. The
// caller must own the line.
func (h *Heap) Write64Through(addr uint64, v uint64) {
	h.check(addr, 8)
	binary.LittleEndian.PutUint64(h.mem[addr:], v)
	binary.LittleEndian.PutUint64(h.persisted[addr:], v)
}

// WriteBytes copies b into the volatile view at addr and flags the lines it
// covers. The caller must own them.
func (h *Heap) WriteBytes(addr uint64, b []byte) {
	h.check(addr, uint64(len(b)))
	copy(h.mem[addr:], b)
	h.markDirty(addr, uint64(len(b)))
}

// CopyWithin copies n bytes of the volatile view from src to dst (the
// ranges may overlap; the copy behaves as if through a temporary) and marks
// the destination lines dirty: two bounds checks, one memmove, one flag
// byte per destination line. The caller must own the destination lines and
// know the source is stable or its own.
func (h *Heap) CopyWithin(dst, src, n uint64) {
	h.check(dst, n)
	h.check(src, n)
	copy(h.mem[dst:dst+n], h.mem[src:src+n])
	h.markDirty(dst, n)
}

// ReadBytes copies n bytes from the volatile view into a fresh slice.
func (h *Heap) ReadBytes(addr, n uint64) []byte {
	h.check(addr, n)
	out := make([]byte, n)
	copy(out, h.mem[addr:addr+n])
	return out
}

// PersistedUint64 reads the durable view (what a crash would preserve);
// recovery and tests use it. The caller must own the line or have its owner
// stopped: the line's stripe excludes a pipeline worker applying a captured
// image of it, not the owner's own lock-free flush.
func (h *Heap) PersistedUint64(addr uint64) uint64 {
	h.check(addr, 8)
	st := h.stripeOf(trace.LineOf(addr))
	st.lock()
	defer st.mu.Unlock()
	return binary.LittleEndian.Uint64(h.persisted[addr:])
}

// FlushLine copies one cache line from the volatile to the durable view:
// the clwb/clflush data movement. (Whether the flush also invalidates the
// hardware cache is a *cost* question handled by internal/hwsim; the data
// movement is the same.) Only the line's owner may flush it.
func (h *Heap) FlushLine(line trace.LineAddr) {
	h.flushLine(line)
}

// Persist flushes every line covering [addr, addr+n).
func (h *Heap) Persist(addr, n uint64) {
	if n == 0 {
		return
	}
	h.check(addr, n)
	first := addr >> trace.LineShift
	last := (addr + n - 1) >> trace.LineShift
	for l := first; l <= last; l++ {
		h.flushLine(trace.LineAddr(l))
	}
}

// lockAll acquires the header mutex and every stripe in index order (the
// whole-heap lock ordering; Crash, PersistAll and CheckConsistency use it).
func (h *Heap) lockAll() {
	h.hdr.Lock()
	for i := range h.stripes {
		h.stripes[i].lock()
	}
}

func (h *Heap) unlockAll() {
	for i := range h.stripes {
		h.stripes[i].mu.Unlock()
	}
	h.hdr.Unlock()
}

// DirtyLines returns the lines written since their last flush, in
// unspecified order.
func (h *Heap) DirtyLines() []trace.LineAddr {
	h.lockAll()
	defer h.unlockAll()
	var out []trace.LineAddr
	for l, d := range h.dirty {
		if d != 0 {
			out = append(out, trace.LineAddr(l))
		}
	}
	return out
}

// DirtyCount returns the number of unflushed lines.
func (h *Heap) DirtyCount() int {
	h.lockAll()
	defer h.unlockAll()
	n := 0
	for _, d := range h.dirty {
		n += int(d)
	}
	return n
}

// isDirty reports whether the line is awaiting a flush (test helper; owner
// or quiesced, like every flag access).
func (h *Heap) isDirty(line trace.LineAddr) bool { return h.dirty[line] != 0 }

// Crash simulates a power failure: the volatile view is replaced by the
// durable view, losing every write that was never flushed. Mutators must
// be quiesced; Crash takes every stripe in order so it cannot interleave
// with a straggling ApplyCaptured.
func (h *Heap) Crash() {
	h.lockAll()
	defer h.unlockAll()
	copy(h.mem, h.persisted)
	clear(h.dirty)
	h.crashes.Add(1)
}

// Crashes reports how many simulated failures the heap has survived.
func (h *Heap) Crashes() int { return int(h.crashes.Load()) }

// PersistAll flushes every dirty line (used by tests and by clean
// shutdown).
func (h *Heap) PersistAll() {
	h.lockAll()
	defer h.unlockAll()
	for l, d := range h.dirty {
		if d != 0 {
			start := trace.LineAddr(l).ByteAddr()
			copy(h.persisted[start:start+trace.LineSize], h.mem[start:start+trace.LineSize])
		}
	}
	clear(h.dirty)
}

// CheckConsistency verifies the cross-view invariant on a quiesced heap:
// every line that is not flagged must read identically in the volatile and
// durable views. Flagged lines are the divergence a flush still owes NVRAM;
// a captured image not yet applied is divergence too, so quiesced includes
// "no image in flight".
func (h *Heap) CheckConsistency() error {
	h.lockAll()
	defer h.unlockAll()
	for l, d := range h.dirty {
		if d != 0 {
			continue
		}
		start := trace.LineAddr(l).ByteAddr()
		for i := uint64(0); i < trace.LineSize; i++ {
			if h.mem[start+i] != h.persisted[start+i] {
				return fmt.Errorf("pmem: clean line %d diverges at byte %d (volatile %#x, durable %#x)",
					l, start+i, h.mem[start+i], h.persisted[start+i])
			}
		}
	}
	return nil
}

// StripeStat is one stripe's lock counters.
type StripeStat struct {
	// Acquired counts lock acquisitions: ApplyCaptured and FlushLines
	// batches, durable reads, whole-heap operations. The owner's store and
	// flush path acquires none.
	Acquired int64
	// Contended counts acquisitions that found the lock already held — the
	// cross-goroutine serialization the striping is meant to minimize.
	Contended int64
}

// StripeStats snapshots every stripe's counters, indexed by stripe.
func (h *Heap) StripeStats() []StripeStat {
	out := make([]StripeStat, NumStripes)
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock() // not lock(): a snapshot does not count itself
		out[i] = StripeStat{Acquired: st.acquired, Contended: st.contended.Load()}
		st.mu.Unlock()
	}
	return out
}

// StripeSummary aggregates StripeStats for reporting (the nvserver STATS
// line).
type StripeSummary struct {
	Stripes     int
	Acquired    int64
	Contended   int64
	HotStripe   int   // stripe with the most acquisitions
	HotAcquired int64 // its acquisition count
}

// SummarizeStripes aggregates per-stripe counters.
func SummarizeStripes(stats []StripeStat) StripeSummary {
	s := StripeSummary{Stripes: len(stats)}
	for i, st := range stats {
		s.Acquired += st.Acquired
		s.Contended += st.Contended
		if st.Acquired > s.HotAcquired {
			s.HotAcquired = st.Acquired
			s.HotStripe = i
		}
	}
	return s
}

// ContentionRatio returns contended/acquired (0 when idle).
func (s StripeSummary) ContentionRatio() float64 {
	if s.Acquired == 0 {
		return 0
	}
	return float64(s.Contended) / float64(s.Acquired)
}

// String renders one STATS line.
func (s StripeSummary) String() string {
	return fmt.Sprintf("stripes=%d acquired=%d contended=%d contention=%.4f hot_stripe=%d hot_acquired=%d",
		s.Stripes, s.Acquired, s.Contended, s.ContentionRatio(), s.HotStripe, s.HotAcquired)
}
