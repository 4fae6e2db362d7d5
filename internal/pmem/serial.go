package pmem

import (
	"encoding/binary"
	"fmt"
	"sync"

	"nvmcache/internal/trace"
)

// SerialHeap is the original coarse-mutex heap: every operation takes one
// global lock, so all accesses are strictly serialized. It is kept (no
// build tag needed) for tests that want a fully serialized oracle — the
// differential test in pmem_test.go drives Heap and SerialHeap with the
// same operation sequence and demands identical views — and for callers
// that cannot promise the single-writer-per-line discipline the sharded
// Heap's lock-free data plane requires.
type SerialHeap struct {
	mu        sync.Mutex
	mem       []byte
	persisted []byte
	dirty     map[trace.LineAddr]struct{}
	crashes   int
}

// NewSerial creates a strictly serialized heap of the given size (rounded
// up to a whole number of cache lines, minimum one line for the header).
func NewSerial(size int) *SerialHeap {
	if size < HeaderSize {
		size = HeaderSize
	}
	if r := size % trace.LineSize; r != 0 {
		size += trace.LineSize - r
	}
	h := &SerialHeap{
		mem:       make([]byte, size),
		persisted: make([]byte, size),
		dirty:     make(map[trace.LineAddr]struct{}, 1024),
	}
	binary.LittleEndian.PutUint64(h.mem[allocOff:], HeaderSize)
	h.persistLocked(0, HeaderSize)
	return h
}

// Size returns the heap size in bytes.
func (h *SerialHeap) Size() uint64 { return uint64(len(h.mem)) }

func (h *SerialHeap) check(addr, n uint64) {
	if addr+n > uint64(len(h.mem)) || addr+n < addr {
		panic(fmt.Sprintf("pmem: access [%d,%d) outside heap of %d bytes", addr, addr+n, len(h.mem)))
	}
}

func (h *SerialHeap) markDirty(addr, n uint64) {
	if n == 0 {
		return
	}
	first := addr >> trace.LineShift
	last := (addr + n - 1) >> trace.LineShift
	for l := first; l <= last; l++ {
		h.dirty[trace.LineAddr(l)] = struct{}{}
	}
}

func (h *SerialHeap) flushLineLocked(line trace.LineAddr) {
	start := line.ByteAddr()
	h.check(start, trace.LineSize)
	copy(h.persisted[start:start+trace.LineSize], h.mem[start:start+trace.LineSize])
	delete(h.dirty, line)
}

func (h *SerialHeap) persistLocked(addr, n uint64) {
	if n == 0 {
		return
	}
	h.check(addr, n)
	first := addr >> trace.LineShift
	last := (addr + n - 1) >> trace.LineShift
	for l := first; l <= last; l++ {
		h.flushLineLocked(trace.LineAddr(l))
	}
}

func (h *SerialHeap) allocLocked(n uint64) (uint64, error) {
	cur := binary.LittleEndian.Uint64(h.mem[allocOff:])
	if r := cur % 8; r != 0 {
		cur += 8 - r
	}
	if cur+n > uint64(len(h.mem)) || cur+n < cur {
		return 0, fmt.Errorf("pmem: out of memory allocating %d bytes (cursor %d, heap %d)", n, cur, len(h.mem))
	}
	binary.LittleEndian.PutUint64(h.mem[allocOff:], cur+n)
	h.persistLocked(0, HeaderSize)
	return cur, nil
}

// Alloc carves n bytes (8-byte aligned) out of the heap.
func (h *SerialHeap) Alloc(n uint64) (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.allocLocked(n)
}

// AllocLines allocates n bytes aligned to a cache-line boundary.
func (h *SerialHeap) AllocLines(n uint64) (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	aligned := (binary.LittleEndian.Uint64(h.mem[allocOff:]) + 7) &^ 7
	if r := aligned % trace.LineSize; r != 0 {
		if _, err := h.allocLocked(trace.LineSize - r); err != nil { // pad
			return 0, err
		}
	}
	return h.allocLocked(n)
}

// SetRoot stores and persists the root object pointer.
func (h *SerialHeap) SetRoot(addr uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	binary.LittleEndian.PutUint64(h.mem[rootOff:], addr)
	h.persistLocked(0, HeaderSize)
}

// Root returns the persistent root pointer.
func (h *SerialHeap) Root() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return binary.LittleEndian.Uint64(h.mem[rootOff:])
}

// SetMeta stores and persists the runtime-metadata pointer.
func (h *SerialHeap) SetMeta(addr uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	binary.LittleEndian.PutUint64(h.mem[metaOff:], addr)
	h.persistLocked(0, HeaderSize)
}

// Meta returns the runtime-metadata pointer (0 when unset).
func (h *SerialHeap) Meta() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return binary.LittleEndian.Uint64(h.mem[metaOff:])
}

// WriteUint64 writes v at addr in the volatile view.
func (h *SerialHeap) WriteUint64(addr uint64, v uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.check(addr, 8)
	binary.LittleEndian.PutUint64(h.mem[addr:], v)
	h.markDirty(addr, 8)
}

// ReadUint64 reads from the volatile view.
func (h *SerialHeap) ReadUint64(addr uint64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.check(addr, 8)
	return binary.LittleEndian.Uint64(h.mem[addr:])
}

// Store64 writes v at addr and returns the overwritten value, matching
// Heap.Store64's single-entry store primitive.
func (h *SerialHeap) Store64(addr uint64, v uint64) (old uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.check(addr, 8)
	old = binary.LittleEndian.Uint64(h.mem[addr:])
	binary.LittleEndian.PutUint64(h.mem[addr:], v)
	h.markDirty(addr, 8)
	return old
}

// Write64Through writes v to both views without marking the line dirty,
// matching Heap.Write64Through.
func (h *SerialHeap) Write64Through(addr uint64, v uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.check(addr, 8)
	binary.LittleEndian.PutUint64(h.mem[addr:], v)
	binary.LittleEndian.PutUint64(h.persisted[addr:], v)
}

// WriteBytes copies b into the volatile view at addr.
func (h *SerialHeap) WriteBytes(addr uint64, b []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.check(addr, uint64(len(b)))
	copy(h.mem[addr:], b)
	h.markDirty(addr, uint64(len(b)))
}

// CopyWithin copies n bytes of the volatile view from src to dst byte by
// byte through a temporary — deliberately not Heap.CopyWithin's memmove, so
// the differential test compares two implementations.
func (h *SerialHeap) CopyWithin(dst, src, n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.check(dst, n)
	h.check(src, n)
	tmp := make([]byte, n)
	for i := range tmp {
		tmp[i] = h.mem[src+uint64(i)]
	}
	for i, b := range tmp {
		h.mem[dst+uint64(i)] = b
	}
	h.markDirty(dst, n)
}

// ReadBytes copies n bytes from the volatile view into a fresh slice.
func (h *SerialHeap) ReadBytes(addr, n uint64) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.check(addr, n)
	out := make([]byte, n)
	copy(out, h.mem[addr:addr+n])
	return out
}

// PersistedUint64 reads the durable view.
func (h *SerialHeap) PersistedUint64(addr uint64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.check(addr, 8)
	return binary.LittleEndian.Uint64(h.persisted[addr:])
}

// FlushLine copies one cache line from the volatile to the durable view.
func (h *SerialHeap) FlushLine(line trace.LineAddr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.flushLineLocked(line)
}

// Persist flushes every line covering [addr, addr+n).
func (h *SerialHeap) Persist(addr, n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.persistLocked(addr, n)
}

// DirtyLines returns the unflushed lines in unspecified order.
func (h *SerialHeap) DirtyLines() []trace.LineAddr {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]trace.LineAddr, 0, len(h.dirty))
	for l := range h.dirty {
		out = append(out, l)
	}
	return out
}

// DirtyCount returns the number of unflushed lines.
func (h *SerialHeap) DirtyCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.dirty)
}

// Crash simulates a power failure.
func (h *SerialHeap) Crash() {
	h.mu.Lock()
	defer h.mu.Unlock()
	copy(h.mem, h.persisted)
	clear(h.dirty)
	h.crashes++
}

// Crashes reports how many simulated failures the heap has survived.
func (h *SerialHeap) Crashes() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.crashes
}

// PersistAll flushes every dirty line.
func (h *SerialHeap) PersistAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for l := range h.dirty {
		start := l.ByteAddr()
		copy(h.persisted[start:start+trace.LineSize], h.mem[start:start+trace.LineSize])
	}
	clear(h.dirty)
}

// CheckConsistency verifies that every clean line reads identically in the
// volatile and durable views, matching Heap.CheckConsistency.
func (h *SerialHeap) CheckConsistency() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	lines := uint64(len(h.mem)) >> trace.LineShift
	for l := uint64(0); l < lines; l++ {
		line := trace.LineAddr(l)
		if _, dirty := h.dirty[line]; dirty {
			continue
		}
		start := line.ByteAddr()
		for i := uint64(0); i < trace.LineSize; i++ {
			if h.mem[start+i] != h.persisted[start+i] {
				return fmt.Errorf("pmem: clean line %d diverges at byte %d (volatile %#x, durable %#x)",
					l, start+i, h.mem[start+i], h.persisted[start+i])
			}
		}
	}
	return nil
}
