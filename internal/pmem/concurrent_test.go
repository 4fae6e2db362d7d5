package pmem

import (
	"bytes"
	"nvmcache/internal/testutil"
	"sync"
	"testing"
	"testing/quick"

	"nvmcache/internal/trace"
)

func TestStore64ReturnsOldValue(t *testing.T) {
	h := New(1024)
	a, _ := h.Alloc(8)
	h.WriteUint64(a, 11)
	if old := h.Store64(a, 22); old != 11 {
		t.Fatalf("Store64 old = %d, want 11", old)
	}
	if h.ReadUint64(a) != 22 {
		t.Fatal("Store64 did not write")
	}
	if !h.isDirty(trace.LineOf(a)) {
		t.Fatal("Store64 did not mark the line dirty")
	}
}

func TestWrite64ThroughIsDurableAndClean(t *testing.T) {
	h := New(1024)
	a, _ := h.AllocLines(8)
	h.Write64Through(a, 77)
	if h.PersistedUint64(a) != 77 {
		t.Fatal("write-through not durable")
	}
	if h.isDirty(trace.LineOf(a)) {
		t.Fatal("write-through marked the line dirty")
	}
	h.Crash()
	if h.ReadUint64(a) != 77 {
		t.Fatal("write-through lost in crash")
	}
}

func TestReadWordClamped(t *testing.T) {
	h := New(128)
	end := h.Size()
	h.WriteBytes(end-3, []byte{0xaa, 0xbb, 0xcc})
	// Aligned word fully inside: same as ReadUint64.
	if h.ReadWordClamped(end-8) != h.ReadUint64(end-8) {
		t.Fatal("in-bounds clamped read differs from ReadUint64")
	}
	// Word overhanging the end: missing bytes read as zero.
	got := h.ReadWordClamped(end - 3)
	want := uint64(0xaa) | uint64(0xbb)<<8 | uint64(0xcc)<<16
	if got != want {
		t.Fatalf("clamped read = %#x, want %#x", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("clamped read at heap end did not panic")
		}
	}()
	h.ReadWordClamped(end)
}

func TestCheckConsistency(t *testing.T) {
	h := New(1024)
	a, _ := h.AllocLines(16)
	h.WriteUint64(a, 5)
	if err := h.CheckConsistency(); err != nil {
		t.Fatalf("dirty divergence reported as inconsistency: %v", err)
	}
	h.PersistAll()
	if err := h.CheckConsistency(); err != nil {
		t.Fatalf("clean heap inconsistent: %v", err)
	}
	// Corrupt the durable view behind the heap's back: a clean line that
	// diverges must be caught.
	h.persisted[a] ^= 0xff
	if err := h.CheckConsistency(); err == nil {
		t.Fatal("corrupted clean line not detected")
	}
}

// TestStripeStatsCountAcquisitions pins where stripes are taken: nothing on
// the owner's store → flush path acquires one, a durable read
// (PersistedUint64) acquires exactly its line's stripe, and each whole-heap
// operation acquires every stripe once.
func TestStripeStatsCountAcquisitions(t *testing.T) {
	h := New(64 * 1024)
	a, _ := h.AllocLines(2 * trace.LineSize)
	line := trace.LineOf(a)
	acquired := func() int64 { return SummarizeStripes(h.StripeStats()).Acquired }

	before := acquired()
	for i := 0; i < 100; i++ {
		h.Store64(a, uint64(i))
		h.WriteUint64(a+8, uint64(i))
		h.Write64Through(a+16, uint64(i))
		h.WriteBytes(a+60, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // spans two lines
		h.CopyWithin(a+trace.LineSize, a, 16)
		h.FlushLine(line)
		h.Persist(a, 2*trace.LineSize)
		h.Store64(a, uint64(i)+1)
		_ = h.ReadUint64(a)
	}
	if got := acquired() - before; got != 0 {
		t.Fatalf("the owner path acquired %d stripes, want 0", got)
	}
	for _, op := range []struct {
		name string
		run  func()
		want int64
	}{
		{"PersistedUint64", func() { h.PersistedUint64(a) }, 1},
		{"DirtyLines", func() { h.DirtyLines() }, NumStripes},
		{"DirtyCount", func() { h.DirtyCount() }, NumStripes},
		{"CheckConsistency", func() { _ = h.CheckConsistency() }, NumStripes},
		{"PersistAll", h.PersistAll, NumStripes},
		{"Crash", h.Crash, NumStripes},
	} {
		before := acquired()
		op.run()
		if got := acquired() - before; got != op.want {
			t.Fatalf("%s acquired %d stripes, want %d", op.name, got, op.want)
		}
	}
	sum := SummarizeStripes(h.StripeStats())
	if sum.Stripes != NumStripes {
		t.Fatalf("stripes %d", sum.Stripes)
	}
	if sum.Contended != 0 || sum.ContentionRatio() != 0 {
		t.Fatalf("single-goroutine run reports contention: %+v", sum)
	}
	if s := sum.String(); s == "" {
		t.Fatal("empty summary")
	}
}

// TestParallelDisjointLines exercises the lock-free data plane under the
// race detector: goroutines own disjoint line ranges and store/flush
// concurrently, the single-writer-per-line discipline. Run with -race.
func TestParallelDisjointLines(t *testing.T) {
	h := New(1 << 20)
	const workers = 8
	const linesPer = 64
	bases := make([]uint64, workers)
	for i := range bases {
		a, err := h.AllocLines(linesPer * trace.LineSize)
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = a
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := bases[w]
			for i := 0; i < 2000; i++ {
				off := uint64(i%(linesPer*8)) * 8
				h.Store64(base+off, uint64(w)<<32|uint64(i))
				if i%7 == 0 {
					h.FlushLine(trace.LineOf(base + off))
				}
				if i%31 == 0 {
					_ = h.PersistedUint64(base + off)
				}
			}
		}(w)
	}
	wg.Wait()
	h.PersistAll()
	if err := h.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		got := h.ReadUint64(bases[w])
		if got>>32 != uint64(w) {
			t.Fatalf("worker %d data corrupted: %#x", w, got)
		}
	}
}

// sameState reports whether the sharded heap and the serial oracle agree on
// every volatile byte, every durable byte and the set of dirty lines.
func sameState(h *Heap, s *SerialHeap) bool {
	if !bytes.Equal(h.mem, s.mem) || !bytes.Equal(h.persisted, s.persisted) {
		return false
	}
	hd, sd := h.DirtyLines(), s.DirtyLines()
	if len(hd) != len(sd) || h.DirtyCount() != s.DirtyCount() {
		return false
	}
	for _, l := range hd {
		if _, ok := s.dirty[l]; !ok {
			return false
		}
	}
	return true
}

// TestDifferentialSerialOracle drives the sharded Heap and the coarse-mutex
// SerialHeap with one random operation sequence — stores, byte writes,
// CopyWithin over aligned, unaligned, overlapping, empty and heap-end
// ranges, flushes, write-throughs, PersistAll and crashes — and demands
// identical volatile bytes, durable bytes and dirty-line sets after every
// operation: the flag array against the oracle's set, the memmove against
// the oracle's copy through a temporary.
func TestDifferentialSerialOracle(t *testing.T) {
	const size = 2048
	f := func(seed int64) bool {
		rng := testutil.Rand(t, seed)
		h := New(size)
		s := NewSerial(size)
		ha, _ := h.AllocLines(1024)
		sa, _ := s.AllocLines(1024)
		if ha != sa {
			return false
		}
		for op := 0; op < 400; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2:
				off := uint64(rng.Intn(127)) * 8
				v := rng.Uint64()
				if h.Store64(ha+off, v) != s.Store64(sa+off, v) {
					return false
				}
			case 3:
				off := uint64(rng.Intn(1016))
				b := make([]byte, 1+rng.Intn(8))
				rng.Read(b)
				h.WriteBytes(ha+off, b)
				s.WriteBytes(sa+off, b)
			case 4:
				l := trace.LineOf(ha + uint64(rng.Intn(16))*trace.LineSize)
				h.FlushLine(l)
				s.FlushLine(l)
			case 5:
				off := uint64(rng.Intn(127)) * 8
				v := rng.Uint64()
				h.Write64Through(ha+off, v)
				s.Write64Through(sa+off, v)
			case 6:
				h.Crash()
				s.Crash()
			case 7:
				off := uint64(rng.Intn(127)) * 8
				if h.PersistedUint64(ha+off) != s.PersistedUint64(sa+off) {
					return false
				}
			case 8:
				// Anywhere above the header, so ranges reach the heap's
				// last byte; short distances make overlaps common.
				n := uint64(rng.Intn(200))
				if rng.Intn(2) == 0 {
					n &^= 7
				}
				src := HeaderSize + uint64(rng.Intn(size-HeaderSize-int(n)+1))
				dst := HeaderSize + uint64(rng.Intn(size-HeaderSize-int(n)+1))
				switch rng.Intn(4) {
				case 0:
					src, dst = src&^7, dst&^7
				case 1:
					dst = size - n // ends at the heap end
				case 2:
					if d := src + uint64(rng.Intn(16)); d+n <= size {
						dst = d // overlaps src from above
					}
				}
				h.CopyWithin(dst, src, n)
				s.CopyWithin(dst, src, n)
			case 9:
				h.PersistAll()
				s.PersistAll()
			}
			if !sameState(h, s) {
				return false
			}
		}
		h.PersistAll()
		s.PersistAll()
		return h.CheckConsistency() == nil && s.CheckConsistency() == nil && sameState(h, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCopyWithinBounds: either range leaving the heap panics before a byte
// moves.
func TestCopyWithinBounds(t *testing.T) {
	h := New(256)
	for _, c := range [][3]uint64{{200, 64, 64}, {64, 200, 64}, {64, 128, ^uint64(0)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CopyWithin(%d, %d, %d) did not panic", c[0], c[1], c[2])
				}
			}()
			h.CopyWithin(c[0], c[1], c[2])
		}()
	}
	if h.DirtyCount() != 0 {
		t.Fatal("a rejected copy marked lines dirty")
	}
}
