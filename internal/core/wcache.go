// Package core implements the paper's primary contribution: the per-thread,
// fully associative, LRU, resizable write-combining software cache
// (Section II-B), the six persistence policies evaluated in Section IV
// (eager, lazy, Atlas table, software cache online and offline, and the
// no-flush upper bound), and the adaptive capacity controller that couples
// the cache to the bursty MRC sampler and knee selection of Section III.
//
// Policies communicate with the outside world only through the Flusher
// interface, so the same policy code runs under the cycle-accurate flush
// engine of internal/hwsim, the real persistent heap of internal/pmem, or
// the plain counting flusher used for flush-ratio experiments.
package core

import (
	"fmt"

	"nvmcache/internal/trace"
)

// node is one entry of the write cache: an intrusive doubly linked list
// node owned by the cache's freelist-backed arena.
type node struct {
	line       trace.LineAddr
	prev, next *node
}

// WriteCache is the software cache of Section II-B: a hash map plus a
// doubly linked list storing cache-line *addresses* (never data — the data
// itself stays in the hardware cache; the software cache only defers and
// combines flushes). All operations are O(1). The zero value is not usable;
// call NewWriteCache.
type WriteCache struct {
	capacity int
	entries  map[trace.LineAddr]*node
	head     *node            // most recently used
	tail     *node            // least recently used
	free     *node            // freelist of recycled nodes
	scratch  []trace.LineAddr // reused by Drain/Resize (hot path, one per FASE)
}

// NewWriteCache returns an empty cache with the given capacity (minimum 1).
func NewWriteCache(capacity int) *WriteCache {
	if capacity < 1 {
		capacity = 1
	}
	return &WriteCache{
		capacity: capacity,
		entries:  make(map[trace.LineAddr]*node, capacity*2),
	}
}

// Len returns the number of buffered line addresses.
func (c *WriteCache) Len() int { return len(c.entries) }

// Capacity returns the current capacity.
func (c *WriteCache) Capacity() int { return c.capacity }

// Contains reports whether the line is buffered, without touching LRU order.
func (c *WriteCache) Contains(line trace.LineAddr) bool {
	_, ok := c.entries[line]
	return ok
}

// Access records a write to line. If the line is already buffered the write
// is combined (hit: the flush it would have caused is saved) and the line
// becomes most recently used. Otherwise the line is inserted; if the cache
// was full the least recently used line is evicted and returned for
// flushing.
func (c *WriteCache) Access(line trace.LineAddr) (hit bool, evicted trace.LineAddr, hasEvict bool) {
	// A repeat of the most recently used line (the next word of a page
	// copy) is a hit that leaves the LRU order as it is: skip the map.
	if c.head != nil && c.head.line == line {
		return true, 0, false
	}
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

// Drain removes and returns all buffered lines in LRU-to-MRU order,
// emptying the cache. Called at the end of a FASE — the hot path — so the
// returned slice is a cache-owned scratch buffer, valid only until the next
// Drain or Resize call. Returns nil when the cache is empty.
func (c *WriteCache) Drain() []trace.LineAddr {
	if len(c.entries) == 0 {
		return nil
	}
	out := c.scratch[:0]
	for n := c.tail; n != nil; n = n.prev {
		out = append(out, n.line)
	}
	c.scratch = out
	c.Clear()
	return out
}

// Clear empties the cache without reporting the entries (used when the
// lines are known to be persisted already).
func (c *WriteCache) Clear() {
	for n := c.head; n != nil; {
		next := n.next
		c.release(n)
		n = next
	}
	c.head, c.tail = nil, nil
	clear(c.entries)
}

// Resize changes the capacity. Shrinking below the current occupancy evicts
// least recently used lines, which are returned for flushing. Like Drain,
// the returned slice is the cache-owned scratch buffer, valid only until
// the next Drain or Resize call; nil when nothing is evicted.
func (c *WriteCache) Resize(capacity int) []trace.LineAddr {
	if capacity < 1 {
		capacity = 1
	}
	c.capacity = capacity
	if len(c.entries) <= c.capacity {
		return nil
	}
	out := c.scratch[:0]
	for len(c.entries) > c.capacity {
		out = append(out, c.evictLRU())
	}
	c.scratch = out
	return out
}

// Lines returns the buffered lines MRU-first, for diagnostics and tests.
func (c *WriteCache) Lines() []trace.LineAddr {
	out := make([]trace.LineAddr, 0, len(c.entries))
	for n := c.head; n != nil; n = n.next {
		out = append(out, n.line)
	}
	return out
}

// checkInvariants validates internal consistency; tests call it after
// randomized operation sequences.
func (c *WriteCache) checkInvariants() error {
	count := 0
	var prev *node
	for n := c.head; n != nil; n = n.next {
		if n.prev != prev {
			return fmt.Errorf("wcache: broken prev link at %v", n.line)
		}
		if m, ok := c.entries[n.line]; !ok || m != n {
			return fmt.Errorf("wcache: list node %v missing from map", n.line)
		}
		prev = n
		count++
	}
	if c.tail != prev {
		return fmt.Errorf("wcache: tail mismatch")
	}
	if count != len(c.entries) {
		return fmt.Errorf("wcache: list has %d nodes, map has %d", count, len(c.entries))
	}
	if count > c.capacity {
		return fmt.Errorf("wcache: occupancy %d exceeds capacity %d", count, c.capacity)
	}
	return nil
}

func (c *WriteCache) alloc(line trace.LineAddr) *node {
	n := c.free
	if n != nil {
		c.free = n.next
		n.next = nil
	} else {
		n = &node{}
	}
	n.line = line
	return n
}

func (c *WriteCache) release(n *node) {
	n.prev = nil
	n.next = c.free
	c.free = n
}

func (c *WriteCache) pushFront(n *node) {
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

func (c *WriteCache) unlink(n *node) {
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

func (c *WriteCache) moveToFront(n *node) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *WriteCache) evictLRU() trace.LineAddr {
	n := c.tail
	c.unlink(n)
	line := n.line
	delete(c.entries, line)
	c.release(n)
	return line
}
