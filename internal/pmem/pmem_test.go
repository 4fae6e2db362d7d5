package pmem

import (
	"bytes"
	"nvmcache/internal/testutil"
	"testing"
	"testing/quick"

	"nvmcache/internal/trace"
)

func TestNewRoundsToLines(t *testing.T) {
	h := New(100)
	if h.Size()%trace.LineSize != 0 {
		t.Fatalf("size %d not line-aligned", h.Size())
	}
	if h.Size() < 128 {
		t.Fatalf("size %d too small for 100 bytes", h.Size())
	}
}

func TestAllocBumpAndAlign(t *testing.T) {
	h := New(4096)
	a, err := h.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if a != HeaderSize {
		t.Fatalf("first alloc at %d, want %d", a, HeaderSize)
	}
	b, err := h.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if b%8 != 0 || b < a+10 {
		t.Fatalf("second alloc at %d", b)
	}
}

func TestAllocExhaustion(t *testing.T) {
	h := New(256)
	if _, err := h.Alloc(1 << 20); err == nil {
		t.Fatal("oversized alloc succeeded")
	}
	if _, err := h.Alloc(100); err != nil {
		t.Fatalf("reasonable alloc failed after failed alloc: %v", err)
	}
}

func TestAllocLinesAligned(t *testing.T) {
	h := New(4096)
	if _, err := h.Alloc(13); err != nil { // misalign the cursor
		t.Fatal(err)
	}
	a, err := h.AllocLines(128)
	if err != nil {
		t.Fatal(err)
	}
	if a%trace.LineSize != 0 {
		t.Fatalf("AllocLines returned %d, not line-aligned", a)
	}
}

func TestAllocSurvivesCrash(t *testing.T) {
	h := New(4096)
	a, _ := h.Alloc(64)
	h.Crash()
	b, _ := h.Alloc(64)
	if b <= a {
		t.Fatalf("allocator cursor lost in crash: %d then %d", a, b)
	}
}

func TestWriteReadUint64(t *testing.T) {
	h := New(1024)
	a, _ := h.Alloc(8)
	h.WriteUint64(a, 0xdeadbeefcafe)
	if got := h.ReadUint64(a); got != 0xdeadbeefcafe {
		t.Fatalf("read back %x", got)
	}
}

func TestWriteReadBytes(t *testing.T) {
	h := New(1024)
	a, _ := h.Alloc(16)
	h.WriteBytes(a, []byte("hello pmem"))
	if got := h.ReadBytes(a, 10); !bytes.Equal(got, []byte("hello pmem")) {
		t.Fatalf("read back %q", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	h := New(128)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds write did not panic")
		}
	}()
	h.WriteUint64(h.Size()-4, 1)
}

func TestCrashLosesUnflushedWrites(t *testing.T) {
	h := New(1024)
	a, _ := h.Alloc(8)
	h.WriteUint64(a, 42)
	h.Crash()
	if got := h.ReadUint64(a); got != 0 {
		t.Fatalf("unflushed write survived crash: %d", got)
	}
	if h.Crashes() != 1 {
		t.Errorf("Crashes = %d", h.Crashes())
	}
}

func TestFlushLineMakesWriteDurable(t *testing.T) {
	h := New(1024)
	a, _ := h.AllocLines(8)
	h.WriteUint64(a, 42)
	h.FlushLine(trace.LineOf(a))
	h.Crash()
	if got := h.ReadUint64(a); got != 42 {
		t.Fatalf("flushed write lost in crash: %d", got)
	}
}

func TestPersistRange(t *testing.T) {
	h := New(4096)
	a, _ := h.AllocLines(200) // spans 4 lines
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(i)
	}
	h.WriteBytes(a, data)
	h.Persist(a, 200)
	h.Crash()
	if got := h.ReadBytes(a, 200); !bytes.Equal(got, data) {
		t.Fatal("persisted range corrupted by crash")
	}
}

func TestDirtyTracking(t *testing.T) {
	h := New(4096)
	a, _ := h.AllocLines(128) // 2 lines
	before := h.DirtyCount()
	h.WriteBytes(a, make([]byte, 128))
	if h.DirtyCount() != before+2 {
		t.Fatalf("dirty count %d, want %d", h.DirtyCount(), before+2)
	}
	h.FlushLine(trace.LineOf(a))
	if h.DirtyCount() != before+1 {
		t.Fatalf("dirty count after flush %d", h.DirtyCount())
	}
	h.PersistAll()
	if h.DirtyCount() != 0 {
		t.Fatal("PersistAll left dirty lines")
	}
}

func TestSetRootPersists(t *testing.T) {
	h := New(1024)
	a, _ := h.Alloc(8)
	h.SetRoot(a)
	h.Crash()
	if h.Root() != a {
		t.Fatalf("root lost in crash: %d", h.Root())
	}
}

func TestPersistedUint64ReadsDurableView(t *testing.T) {
	h := New(1024)
	a, _ := h.AllocLines(8)
	h.WriteUint64(a, 7)
	if h.PersistedUint64(a) != 0 {
		t.Fatal("durable view saw unflushed write")
	}
	h.FlushLine(trace.LineOf(a))
	if h.PersistedUint64(a) != 7 {
		t.Fatal("durable view missed flushed write")
	}
}

func TestSinkAdapter(t *testing.T) {
	h := New(1024)
	a, _ := h.AllocLines(8)
	s := NewSink(h)
	h.WriteUint64(a, 9)
	s.FlushLine(trace.LineOf(a))
	h.Crash()
	if h.ReadUint64(a) != 9 {
		t.Fatal("FlushLine did not persist")
	}
	h.WriteUint64(a, 10)
	s.Drain([]trace.LineAddr{trace.LineOf(a)})
	h.Crash()
	if h.ReadUint64(a) != 10 {
		t.Fatal("Drain did not persist")
	}
	st := s.Stats()
	if st.Async != 1 || st.Drained != 1 || st.Barriers != 0 || st.Total() != 2 {
		t.Fatalf("stats %+v", st)
	}
	s.Drain(nil)
	if s.Stats().Barriers != 1 {
		t.Fatal("empty drain not counted as barrier")
	}
}

// Property: after any sequence of writes, flushes and crashes, the volatile
// view of a line equals the durable view if the line is not dirty; and a
// crash always makes every line clean and equal across views.
func TestQuickCrashSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := testutil.Rand(t, seed)
		h := New(2048)
		base, _ := h.AllocLines(1024) // 16 lines
		for op := 0; op < 200; op++ {
			switch rng.Intn(5) {
			case 0, 1, 2:
				off := uint64(rng.Intn(127)) * 8
				h.WriteUint64(base+off, rng.Uint64())
			case 3:
				l := trace.LineOf(base + uint64(rng.Intn(16))*trace.LineSize)
				h.FlushLine(l)
			case 4:
				h.Crash()
				if h.DirtyCount() != 0 {
					return false
				}
				for i := 0; i < 16; i++ {
					addr := base + uint64(i)*trace.LineSize
					if h.ReadUint64(addr) != h.PersistedUint64(addr) {
						return false
					}
				}
			}
		}
		// Clean lines always agree across views.
		for i := 0; i < 16; i++ {
			addr := base + uint64(i)*trace.LineSize
			if !h.isDirty(trace.LineOf(addr)) {
				if h.ReadUint64(addr) != h.PersistedUint64(addr) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAtomicWordMatchesPlainLayout: StoreAtomic64 lays a word out exactly
// as WriteUint64 does (ReadUint64 and LoadAtomic64 agree), flags its line
// like any store, reaches the durable view only by a flush, and refuses an
// unaligned address.
func TestAtomicWordMatchesPlainLayout(t *testing.T) {
	h := New(4096)
	const addr = 2*trace.LineSize + 16
	h.StoreAtomic64(addr, 0x0102030405060708)
	if got := h.ReadUint64(addr); got != 0x0102030405060708 {
		t.Fatalf("ReadUint64 after StoreAtomic64 = %#x", got)
	}
	h.WriteUint64(addr+8, 42)
	if got := h.LoadAtomic64(addr + 8); got != 42 {
		t.Fatalf("LoadAtomic64 after WriteUint64 = %d", got)
	}
	if !h.isDirty(trace.LineOf(addr)) {
		t.Fatal("StoreAtomic64 left its line clean")
	}
	if got := h.PersistedUint64(addr); got != 0 {
		t.Fatalf("durable view holds %#x before any flush", got)
	}
	h.FlushLine(trace.LineOf(addr))
	if got := h.PersistedUint64(addr); got != 0x0102030405060708 {
		t.Fatalf("durable view after flush = %#x", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned StoreAtomic64 did not panic")
		}
	}()
	h.StoreAtomic64(addr+4, 1)
}
