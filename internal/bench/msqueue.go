package bench

import (
	"fmt"
	"sync"

	"nvmcache/internal/atlas"
	"nvmcache/internal/pmem"
)

// MSQueue is a persistent concurrent FIFO queue after the two-lock
// (blocking) algorithm of Michael and Scott (PODC'96), the paper's queue
// micro-benchmark: head and tail each protected by their own lock, a dummy
// node, nodes linked through persistent pointers. Every enqueue and
// dequeue is one FASE ("a given number of elements added atomically at
// each step"), so the queue exercises the many-small-FASEs regime where
// write combining has little room (the paper's LA = AT = SC = 0.625).
//
// Node layout (line-aligned, 64 bytes): value at +0, next at +8.
type MSQueue struct {
	heap *pmem.Heap
	base uint64 // queue header: head ptr at +0, tail ptr at +8
	hMu  sync.Mutex
	tMu  sync.Mutex
	// hdrMu passes ownership of the header's cache line between the two
	// ends. Head and tail pointer share that line, and a line has one owner
	// at a time (pmem's single-writer-per-line discipline covers its flag
	// and its flush, not just its words), so a dequeuer and an enqueuer hold
	// hdrMu from their store to the header until their FASE has ended. Node
	// allocation, initialization, linking and the head-side reads stay under
	// the two end locks alone. Taken after hMu or tMu, never before.
	hdrMu sync.Mutex
}

const (
	qHeadOff = 0
	qTailOff = 8
	nValOff  = 0
	nNextOff = 8
	nodeSize = 64
)

// NewMSQueue allocates the queue header and dummy node. The enqueueing
// thread persists the initial state in one FASE.
func NewMSQueue(t *atlas.Thread) (*MSQueue, error) {
	h := t.Heap()
	base, err := h.AllocLines(64)
	if err != nil {
		return nil, fmt.Errorf("msqueue: %w", err)
	}
	dummy, err := h.AllocLines(nodeSize)
	if err != nil {
		return nil, fmt.Errorf("msqueue: %w", err)
	}
	t.FASEBegin()
	t.Store64(dummy+nNextOff, 0)
	t.Store64(base+qHeadOff, dummy)
	t.Store64(base+qTailOff, dummy)
	t.FASEEnd()
	return &MSQueue{heap: h, base: base}, nil
}

// Enqueue appends v. The node allocation, its initialization, the tail
// link and the tail pointer update form one FASE under the tail lock.
func (q *MSQueue) Enqueue(t *atlas.Thread, v uint64) error {
	node, err := q.heap.AllocLines(nodeSize)
	if err != nil {
		return err
	}
	q.tMu.Lock()
	defer q.tMu.Unlock()
	t.FASEBegin()
	t.Store64(node+nValOff, v)
	t.Store64(node+nNextOff, 0)
	tail := t.Load64(q.base + qTailOff)
	t.Store64(tail+nNextOff, node)
	q.hdrMu.Lock()
	t.Store64(q.base+qTailOff, node)
	t.FASEEnd()
	q.hdrMu.Unlock()
	return nil
}

// Dequeue removes the oldest element. ok is false when the queue is empty.
func (q *MSQueue) Dequeue(t *atlas.Thread) (v uint64, ok bool) {
	q.hMu.Lock()
	defer q.hMu.Unlock()
	head := t.Load64(q.base + qHeadOff)
	next := t.Load64(head + nNextOff)
	if next == 0 {
		return 0, false
	}
	v = t.Load64(next + nValOff)
	t.FASEBegin()
	q.hdrMu.Lock()
	t.Store64(q.base+qHeadOff, next)
	t.FASEEnd()
	q.hdrMu.Unlock()
	return v, true
}

// Len counts elements (diagnostic; takes no locks).
func (q *MSQueue) Len(t *atlas.Thread) int {
	n := 0
	for p := t.Load64(t.Load64(q.base+qHeadOff) + nNextOff); p != 0; p = t.Load64(p + nNextOff) {
		n++
	}
	return n
}

// MSQueueConfig sizes the queue micro-benchmark run.
type MSQueueConfig struct {
	Ops     int // total enqueue+dequeue operations (paper: 400000 stores over 300K FASEs)
	Threads int
}

// DefaultMSQueue approximates the paper's run shape at full scale.
func DefaultMSQueue() MSQueueConfig { return MSQueueConfig{Ops: 300000, Threads: 2} }

// Scale shrinks the operation count by factor s.
func (c MSQueueConfig) Scale(s float64) MSQueueConfig {
	c.Ops = int(float64(c.Ops) * s)
	if c.Ops < 4 {
		c.Ops = 4
	}
	return c
}

// RunMSQueue executes the benchmark: each thread alternates enqueues and
// (every third op) dequeues, mimicking a producer-heavy concurrent queue.
func RunMSQueue(c MSQueueConfig) (*Result, error) {
	if c.Threads < 1 {
		c.Threads = 1
	}
	heap := 64 * (c.Ops + 1024)
	return run(heap, c.Threads, func(rt *atlas.Runtime, ths []*atlas.Thread) error {
		q, err := NewMSQueue(ths[0])
		if err != nil {
			return err
		}
		perThread := c.Ops / len(ths)
		var wg sync.WaitGroup
		errs := make([]error, len(ths))
		for ti, th := range ths {
			wg.Add(1)
			go func(ti int, th *atlas.Thread) {
				defer wg.Done()
				for i := 0; i < perThread; i++ {
					if i%3 == 2 {
						q.Dequeue(th)
						continue
					}
					if err := q.Enqueue(th, uint64(ti*perThread+i)); err != nil {
						errs[ti] = err
						return
					}
				}
			}(ti, th)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
}
