package core

import (
	"fmt"
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
	c.Access(5)
	c.Access(6)
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Lines(), []trace.LineAddr{6, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Clear and two accesses: %v, want %v", got, want)
	}
}

// checkInvariants validates the array: within capacity and allocation, and
// no line buffered twice.
func checkInvariants(c *WriteCache) error {
	if len(c.lines) > c.capacity || c.capacity > cap(c.lines) {
		return fmt.Errorf("wcache: occupancy %d, capacity %d, allocation %d", len(c.lines), c.capacity, cap(c.lines))
	}
	seen := make(map[trace.LineAddr]bool, len(c.lines))
	for _, l := range c.lines {
		if seen[l] {
			return fmt.Errorf("wcache: line %v buffered twice", l)
		}
		seen[l] = true
	}
	return nil
}

// listCache is the reference model: the hash map plus intrusive doubly
// linked list (with its node freelist) that WriteCache was before it became
// an array. Every operation is O(1) and none shares code with the array, so
// agreement between the two is evidence about both.
type listCache struct {
	capacity int
	entries  map[trace.LineAddr]*listNode
	head     *listNode // most recently used
	tail     *listNode // least recently used
	free     *listNode
}

type listNode struct {
	line       trace.LineAddr
	prev, next *listNode
}

func newListCache(capacity int) *listCache {
	return &listCache{capacity: capacity, entries: make(map[trace.LineAddr]*listNode, capacity*2)}
}

func (c *listCache) Access(line trace.LineAddr) (hit bool, evicted trace.LineAddr, hasEvict bool) {
	if n, ok := c.entries[line]; ok {
		if c.head != n {
			c.unlink(n)
			c.pushFront(n)
		}
		return true, 0, false
	}
	if len(c.entries) >= c.capacity {
		evicted = c.evictLRU()
		hasEvict = true
	}
	n := c.free
	if n != nil {
		c.free = n.next
		n.next = nil
	} else {
		n = &listNode{}
	}
	n.line = line
	c.entries[line] = n
	c.pushFront(n)
	return false, evicted, hasEvict
}

func (c *listCache) Drain() []trace.LineAddr {
	if len(c.entries) == 0 {
		return nil
	}
	var out []trace.LineAddr
	for n := c.tail; n != nil; n = n.prev {
		out = append(out, n.line)
	}
	for n := c.head; n != nil; {
		next := n.next
		c.release(n)
		n = next
	}
	c.head, c.tail = nil, nil
	clear(c.entries)
	return out
}

func (c *listCache) Resize(capacity int) []trace.LineAddr {
	c.capacity = capacity
	var out []trace.LineAddr
	for len(c.entries) > c.capacity {
		out = append(out, c.evictLRU())
	}
	return out
}

func (c *listCache) Lines() []trace.LineAddr {
	out := make([]trace.LineAddr, 0, len(c.entries))
	for n := c.head; n != nil; n = n.next {
		out = append(out, n.line)
	}
	return out
}

func (c *listCache) release(n *listNode) {
	n.prev = nil
	n.next = c.free
	c.free = n
}

func (c *listCache) pushFront(n *listNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *listCache) unlink(n *listNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *listCache) evictLRU() trace.LineAddr {
	n := c.tail
	c.unlink(n)
	delete(c.entries, n.line)
	c.release(n)
	return n.line
}

// Property: the array cache behaves exactly like the map+list reference at
// capacities 1…50 under random access/resize/drain sequences that include
// bursts of one repeated line (a page copy's words), shrinking and growing
// resizes and drains — same hits, same evicted lines, same Lines() order,
// same Drain() order, same Resize evictions at every step — and its
// invariants hold.
func TestQuickWriteCacheMatchesModel(t *testing.T) {
	const maxCap = 50
	same := func(got, want []trace.LineAddr) bool {
		return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
	}
	f := func(seed int64, cap8 uint8) bool {
		rng := testutil.Rand(t, seed)
		capacity := 1 + int(cap8)%maxCap
		c := NewWriteCache(capacity)
		m := newListCache(capacity)
		for op := 0; op < 400; op++ {
			switch rng.Intn(12) {
			case 10: // resize, shrinking and growing
				newCap := 1 + rng.Intn(maxCap)
				if !same(c.Resize(newCap), m.Resize(newCap)) || c.Capacity() != newCap {
					return false
				}
			case 11: // drain
				if !same(c.Drain(), m.Drain()) || c.Len() != 0 {
					return false
				}
			default:
				// Twice as many lines as the capacity in effect, so hits,
				// misses into free space and evictions all occur.
				l := trace.LineAddr(rng.Intn(2*c.Capacity() + 2))
				burst := 1
				if rng.Intn(3) == 0 {
					burst += rng.Intn(8)
				}
				for ; burst > 0; burst-- {
					hit, ev, has := c.Access(l)
					whit, wev, whas := m.Access(l)
					if hit != whit || has != whas || ev != wev {
						return false
					}
				}
			}
			if err := checkInvariants(c); err != nil {
				t.Log(err)
				return false
			}
			if !same(c.Lines(), m.Lines()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
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

// TestWriteCacheDrainAllocs pins that a constructed cache never allocates
// again on the FASE hot path: Access (hits at any depth, misses into free
// space, evictions), Drain, Clear and a shrinking Resize — with no warm-up,
// the arrays are sized by NewWriteCache. Only a Resize that grows past the
// allocation may allocate, and it does so itself, so nothing after it does.
func TestWriteCacheDrainAllocs(t *testing.T) {
	const capacity = 50
	c := NewWriteCache(capacity)
	fill := func() {
		for i := 0; i < capacity; i++ {
			c.Access(trace.LineAddr(i))
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		fill()
		for i := 0; i < capacity; i++ {
			if hit, _, _ := c.Access(trace.LineAddr(i)); !hit { // LRU hit: full rotate
				t.Fatalf("line %d missed in a full cache", i)
			}
		}
		for i := 0; i < capacity; i++ {
			if _, _, has := c.Access(trace.LineAddr(capacity + i)); !has {
				t.Fatalf("miss %d in a full cache evicted nothing", i)
			}
		}
		c.Clear()
	}); n != 0 {
		t.Fatalf("Access+Clear allocates %v per op, want 0", n)
	}
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
		c.Resize(capacity) // back within the allocation: not a reallocation
		c.Clear()
	}); n != 0 {
		t.Fatalf("fill+Resize allocates %v per op, want 0", n)
	}
	c.Resize(2 * capacity)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 2*capacity; i++ {
			c.Access(trace.LineAddr(i))
		}
		if got := c.Drain(); len(got) != 2*capacity {
			t.Fatalf("drained %d lines, want %d", len(got), 2*capacity)
		}
	}); n != 0 {
		t.Fatalf("fill+Drain after a growing Resize allocates %v per op, want 0", n)
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
