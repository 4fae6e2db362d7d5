package core

import (
	"nvmcache/internal/testutil"
	"reflect"
	"testing"
	"testing/quick"

	"nvmcache/internal/trace"
)

func TestWriteCacheHitMissEvict(t *testing.T) {
	c := NewWriteCache(2)
	hit, _, ev := c.Access(1)
	if hit || ev {
		t.Fatalf("first access: hit=%v ev=%v", hit, ev)
	}
	hit, _, ev = c.Access(2)
	if hit || ev {
		t.Fatalf("second access: hit=%v ev=%v", hit, ev)
	}
	hit, _, _ = c.Access(1)
	if !hit {
		t.Fatal("reaccess of buffered line missed")
	}
	// 1 is now MRU; inserting 3 must evict 2 (LRU).
	hit, evicted, ev := c.Access(3)
	if hit || !ev || evicted != 2 {
		t.Fatalf("expected eviction of 2, got hit=%v evicted=%v has=%v", hit, evicted, ev)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestWriteCacheFigure1Scenario(t *testing.T) {
	// Figure 1: cache of two blocks holding {0x500, 0x400} with 0x500 more
	// recent; accessing 0x600 evicts 0x400.
	c := NewWriteCache(2)
	c.Access(0x400)
	c.Access(0x500)
	_, evicted, has := c.Access(0x600)
	if !has || evicted != 0x400 {
		t.Fatalf("evicted %v (has=%v), want 0x400", evicted, has)
	}
}

func TestWriteCacheDrainOrder(t *testing.T) {
	c := NewWriteCache(4)
	for _, l := range []trace.LineAddr{10, 20, 30} {
		c.Access(l)
	}
	c.Access(10) // 10 becomes MRU
	got := c.Drain()
	want := []trace.LineAddr{20, 30, 10} // LRU first
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
	if c.Len() != 0 {
		t.Errorf("cache not empty after drain")
	}
	if got := c.Drain(); got != nil {
		t.Errorf("second drain = %v", got)
	}
}

func TestWriteCacheResizeShrinkEvictsLRU(t *testing.T) {
	c := NewWriteCache(4)
	for _, l := range []trace.LineAddr{1, 2, 3, 4} {
		c.Access(l)
	}
	evicted := c.Resize(2)
	want := []trace.LineAddr{1, 2}
	if !reflect.DeepEqual(evicted, want) {
		t.Fatalf("Resize evicted %v, want %v", evicted, want)
	}
	if c.Capacity() != 2 || c.Len() != 2 {
		t.Errorf("capacity %d len %d", c.Capacity(), c.Len())
	}
	if !c.Contains(3) || !c.Contains(4) {
		t.Errorf("wrong survivors: %v", c.Lines())
	}
}

func TestWriteCacheResizeGrow(t *testing.T) {
	c := NewWriteCache(1)
	c.Access(1)
	if ev := c.Resize(3); ev != nil {
		t.Fatalf("grow evicted %v", ev)
	}
	c.Access(2)
	if _, _, has := c.Access(3); has {
		t.Fatal("eviction before reaching new capacity")
	}
}

func TestWriteCacheCapacityClamp(t *testing.T) {
	c := NewWriteCache(0)
	if c.Capacity() != 1 {
		t.Errorf("capacity %d, want clamp to 1", c.Capacity())
	}
	c.Resize(-5)
	if c.Capacity() != 1 {
		t.Errorf("resize clamp failed: %d", c.Capacity())
	}
}

func TestWriteCacheClear(t *testing.T) {
	c := NewWriteCache(3)
	c.Access(1)
	c.Access(2)
	c.Clear()
	if c.Len() != 0 || c.Contains(1) {
		t.Fatal("Clear left entries")
	}
	// Freelist reuse must not corrupt state.
	c.Access(5)
	c.Access(6)
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// modelLRU is a trivially correct reference: a slice ordered MRU-first.
type modelLRU struct {
	cap   int
	lines []trace.LineAddr
}

func (m *modelLRU) access(l trace.LineAddr) (hit bool, evicted trace.LineAddr, has bool) {
	for i, x := range m.lines {
		if x == l {
			copy(m.lines[1:i+1], m.lines[:i])
			m.lines[0] = l
			return true, 0, false
		}
	}
	if len(m.lines) == m.cap {
		evicted = m.lines[len(m.lines)-1]
		m.lines = m.lines[:len(m.lines)-1]
		has = true
	}
	m.lines = append([]trace.LineAddr{l}, m.lines...)
	return false, evicted, has
}

// accessNoShortCircuit is Access without its MRU short-circuit: every
// access goes through the map and moveToFront.
func accessNoShortCircuit(c *WriteCache, line trace.LineAddr) (hit bool, evicted trace.LineAddr, hasEvict bool) {
	if n, ok := c.entries[line]; ok {
		c.moveToFront(n)
		return true, 0, false
	}
	if len(c.entries) >= c.capacity {
		evicted = c.evictLRU()
		hasEvict = true
	}
	n := c.alloc(line)
	c.entries[line] = n
	c.pushFront(n)
	return false, evicted, hasEvict
}

// Property: the O(1) cache behaves exactly like the reference LRU, and like
// a second cache driven without the MRU short-circuit, under random
// access/resize/drain sequences that include runs of one repeated line (a
// page copy's words) — same hits, same evictions, same Lines() order — and
// its internal invariants hold.
func TestQuickWriteCacheMatchesModel(t *testing.T) {
	f := func(seed int64, cap8 uint8) bool {
		rng := testutil.Rand(t, seed)
		capacity := 1 + int(cap8)%12
		c := NewWriteCache(capacity)
		slow := NewWriteCache(capacity)
		m := &modelLRU{cap: capacity}
		for op := 0; op < 300; op++ {
			switch rng.Intn(10) {
			case 8: // resize
				newCap := 1 + rng.Intn(12)
				slow.Resize(newCap)
				got := c.Resize(newCap)
				var want []trace.LineAddr
				for len(m.lines) > newCap {
					want = append(want, m.lines[len(m.lines)-1])
					m.lines = m.lines[:len(m.lines)-1]
				}
				m.cap = newCap
				if !reflect.DeepEqual(got, want) {
					return false
				}
			case 9: // drain
				slow.Drain()
				got := c.Drain()
				var want []trace.LineAddr
				for i := len(m.lines) - 1; i >= 0; i-- {
					want = append(want, m.lines[i])
				}
				m.lines = nil
				if !reflect.DeepEqual(got, want) {
					return false
				}
			default:
				l := trace.LineAddr(rng.Intn(20))
				run := 1
				if rng.Intn(3) == 0 {
					run += rng.Intn(8)
				}
				for ; run > 0; run-- {
					hit, ev, has := c.Access(l)
					whit, wev, whas := m.access(l)
					shit, sev, shas := accessNoShortCircuit(slow, l)
					if hit != whit || has != whas || (has && ev != wev) ||
						hit != shit || has != shas || ev != sev {
						return false
					}
				}
			}
			if err := c.checkInvariants(); err != nil {
				return false
			}
			if got := c.Lines(); !reflect.DeepEqual(got, slow.Lines()) ||
				!reflect.DeepEqual(got, append([]trace.LineAddr{}, m.lines...)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Stack inclusion: hit count is monotonically non-decreasing in capacity
// (DESIGN.md invariant 3).
func TestQuickStackInclusion(t *testing.T) {
	f := func(seed int64) bool {
		rng := testutil.Rand(t, seed)
		n := 50 + rng.Intn(400)
		seq := make([]trace.LineAddr, n)
		for i := range seq {
			seq[i] = trace.LineAddr(rng.Intn(25))
		}
		prevHits := -1
		for capacity := 1; capacity <= 30; capacity += 3 {
			c := NewWriteCache(capacity)
			hits := 0
			for _, l := range seq {
				if h, _, _ := c.Access(l); h {
					hits++
				}
			}
			if hits < prevHits {
				return false
			}
			prevHits = hits
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteCacheAccess(b *testing.B) {
	c := NewWriteCache(50)
	rng := testutil.Rand(b, 1)
	lines := make([]trace.LineAddr, 4096)
	for i := range lines {
		lines[i] = trace.LineAddr(rng.Intn(64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(lines[i%len(lines)])
	}
}

// TestWriteCacheDrainAllocs pins the scratch-buffer reuse on the FASE hot
// path: once warm, a fill + Drain cycle (and a shrinking Resize) must not
// allocate — the drain slice is cache-owned scratch and the nodes come from
// the freelist.
func TestWriteCacheDrainAllocs(t *testing.T) {
	const capacity = 50
	c := NewWriteCache(capacity)
	fill := func() {
		for i := 0; i < capacity; i++ {
			c.Access(trace.LineAddr(i))
		}
	}
	fill()
	c.Drain() // warm the scratch buffer and freelist
	if n := testing.AllocsPerRun(100, func() {
		fill()
		if got := c.Drain(); len(got) != capacity {
			t.Fatalf("drained %d lines, want %d", len(got), capacity)
		}
	}); n != 0 {
		t.Fatalf("fill+Drain allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		fill()
		if got := c.Resize(capacity / 2); len(got) != capacity/2 {
			t.Fatalf("resize evicted %d lines, want %d", len(got), capacity/2)
		}
		c.Resize(capacity)
		c.Clear()
	}); n != 0 {
		t.Fatalf("fill+Resize allocates %v per op, want 0", n)
	}
}

// BenchmarkWriteCacheDrain measures the FASE-end drain cycle; allocs/op is
// the scratch-reuse regression metric (must report 0).
func BenchmarkWriteCacheDrain(b *testing.B) {
	const capacity = 50
	c := NewWriteCache(capacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < capacity; j++ {
			c.Access(trace.LineAddr(j))
		}
		c.Drain()
	}
}
