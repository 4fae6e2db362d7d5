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
	"slices"

	"nvmcache/internal/trace"
)

// WriteCache is the software cache of Section II-B: a fully associative LRU
// set of cache-line *addresses* (never data — the data itself stays in the
// hardware cache; the software cache only defers and combines flushes).
//
// It is one array ordered most recently used first. Access scans it from
// the front and rotates the hit (or the new line) to index 0, so a lookup
// costs O(capacity) compares over a few contiguous cache lines and no
// hashing, pointer chasing or allocation. That is the right trade only
// because capacities are small: Knee.MaxSize bounds the adaptive policy at
// 50 lines (the paper's cap on the FASE-end drain stall), 400 bytes of
// addresses, and write streams are bursty enough that most hits are at
// index 0 or close to it. A caller wanting thousands of lines wants a
// different structure. The zero value is not usable; call NewWriteCache.
type WriteCache struct {
	capacity int
	lines    []trace.LineAddr // MRU first; cap(lines) ≥ capacity
	scratch  []trace.LineAddr // reused by Drain/Resize (hot path, one per FASE)
}

// NewWriteCache returns an empty cache with the given capacity (minimum 1).
func NewWriteCache(capacity int) *WriteCache {
	if capacity < 1 {
		capacity = 1
	}
	return &WriteCache{
		capacity: capacity,
		lines:    make([]trace.LineAddr, 0, capacity),
		scratch:  make([]trace.LineAddr, 0, capacity),
	}
}

// Len returns the number of buffered line addresses.
func (c *WriteCache) Len() int { return len(c.lines) }

// Capacity returns the current capacity.
func (c *WriteCache) Capacity() int { return c.capacity }

// Contains reports whether the line is buffered, without touching LRU order.
func (c *WriteCache) Contains(line trace.LineAddr) bool { return slices.Contains(c.lines, line) }

// Access records a write to line. If the line is already buffered the write
// is combined (hit: the flush it would have caused is saved) and the line
// becomes most recently used. Otherwise the line is inserted; if the cache
// was full the least recently used line is evicted and returned for
// flushing.
func (c *WriteCache) Access(line trace.LineAddr) (hit bool, evicted trace.LineAddr, hasEvict bool) {
	lines := c.lines
	for i, l := range lines {
		if l == line {
			// i == 0 — the next word of a page copy — moves nothing.
			copy(lines[1:i+1], lines[:i])
			lines[0] = line
			return true, 0, false
		}
	}
	if len(lines) >= c.capacity {
		evicted, hasEvict = lines[len(lines)-1], true
	} else {
		lines = lines[:len(lines)+1]
		c.lines = lines
	}
	copy(lines[1:], lines)
	lines[0] = line
	return false, evicted, hasEvict
}

// Drain removes and returns all buffered lines in LRU-to-MRU order,
// emptying the cache. Called at the end of a FASE — the hot path — so the
// returned slice is a cache-owned scratch buffer, valid only until the next
// Drain or Resize call. Returns nil when the cache is empty.
func (c *WriteCache) Drain() []trace.LineAddr {
	if len(c.lines) == 0 {
		return nil
	}
	return c.evictTo(0)
}

// Clear empties the cache without reporting the entries (used when the
// lines are known to be persisted already).
func (c *WriteCache) Clear() { c.lines = c.lines[:0] }

// Resize changes the capacity. Shrinking below the current occupancy evicts
// least recently used lines, which are returned for flushing. Like Drain,
// the returned slice is the cache-owned scratch buffer, valid only until
// the next Drain or Resize call; nil when nothing is evicted. Growing past
// the arrays' allocation reallocates them, here and never later.
func (c *WriteCache) Resize(capacity int) []trace.LineAddr {
	if capacity < 1 {
		capacity = 1
	}
	c.capacity = capacity
	if capacity > cap(c.lines) {
		c.lines = append(make([]trace.LineAddr, 0, capacity), c.lines...)
		c.scratch = make([]trace.LineAddr, 0, capacity)
	}
	if len(c.lines) <= capacity {
		return nil
	}
	return c.evictTo(capacity)
}

// evictTo removes every line past the keep most recently used and returns
// them, least recently used first, in the scratch buffer.
func (c *WriteCache) evictTo(keep int) []trace.LineAddr {
	out := c.scratch[:0]
	for i := len(c.lines) - 1; i >= keep; i-- {
		out = append(out, c.lines[i])
	}
	c.scratch = out
	c.lines = c.lines[:keep]
	return out
}

// Lines returns the buffered lines MRU-first, for diagnostics and tests.
func (c *WriteCache) Lines() []trace.LineAddr { return slices.Clone(c.lines) }
