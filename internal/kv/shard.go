package kv

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"nvmcache/internal/atlas"
	"nvmcache/internal/mdb"
)

// Op names a single-key request for Store.Submit: a mutation, or OpGet.
type Op uint8

const (
	OpPut Op = iota
	OpDel
	// OpIncr and OpDecr add or subtract the operand (wrapping uint64
	// arithmetic; a missing key counts from zero).
	OpIncr
	OpDecr
	// OpGet is a read in queue order: its commit answers it at its
	// position, so it sees exactly the writes queued ahead of it, and
	// completes it only with its batch's acks — after the commit that makes
	// those writes durable. A GET that needs no such ordering should use
	// Store.Get, which reads the committed snapshot and never queues.
	OpGet
	// opPuts is a batched put (Store.SubmitBatch / the wire protocol's
	// MPUT): one request carrying a shard-local pairs slice, acked once after
	// the whole slice is durable. It rides the queue as a single request so
	// an MPUT costs one enqueue/ack per shard touched instead of one per pair.
	opPuts
)

// Result is the outcome of one request: Found is a delete's "was present"
// or a GET's "is present", Val a counter op's post-op value at its
// serialization point or a GET's value.
type Result struct {
	Err   error
	Found bool
	Val   uint64
}

// Ticket is the caller-owned completion slot of one submitted request. The
// zero value is ready to use, and a ticket is reusable: once Wait has
// returned it may be submitted again, so a caller that keeps its tickets (a
// connection's window, a worker's loop) submits and completes without
// allocating. A ticket carries one request at a time and must not be
// copied after first use.
type Ticket struct {
	// state is ticketDone, ticketQueued, or ticketSleeping while Wait is
	// parked on wake; complete swaps it to ticketDone and signals wake only
	// when it finds the waiter asleep, so a Wait whose request was committed
	// before it looked, or by its own goroutine, never touches wake.
	state atomic.Uint32
	wake  chan struct{} // buffered(1), made at the first sleep
	res   Result
	sh    *shard // the shard the request was queued on

	// parts are SubmitBatch's per-shard requests when a batch spans more
	// than one shard; each is an ordinary single-request ticket, and Wait
	// waits for them in turn.
	parts []Ticket
	// grouped is SubmitBatch's scratch: the batch's pairs counting-sorted by
	// shard. The shard requests alias it until Wait returns.
	grouped []Pair
}

const (
	ticketDone uint32 = iota
	ticketQueued
	ticketSleeping
)

// arm readies t for one request to be queued on sh.
func (t *Ticket) arm(sh *shard) {
	t.res = Result{}
	t.sh = sh
	t.parts = t.parts[:0]
	t.state.Store(ticketQueued)
}

func (t *Ticket) done() bool { return t.state.Load() == ticketDone }

// complete delivers the request's outcome and wakes a sleeping Wait. Every
// request that was armed is completed exactly once — under its shard's
// commit lock by the committer (ack or nack) or by the crash draining the
// queues, or by Submit itself when the store refuses it.
func (t *Ticket) complete(res Result) {
	t.res = res
	if t.state.Swap(ticketDone) == ticketSleeping {
		t.wake <- struct{}{}
	}
}

// sleep parks the waiter until complete wakes it: the wait for a crash to
// nack a request that is still queued.
func (t *Ticket) sleep() {
	if t.wake == nil {
		t.wake = make(chan struct{}, 1)
	}
	if t.state.CompareAndSwap(ticketQueued, ticketSleeping) {
		<-t.wake
	}
}

// Wait returns the submitted request's outcome once it has completed,
// committing it first if it is still queued: under the shard's commit lock,
// the caller's goroutine commits whatever is queued there — its own request
// and everyone else's, up to MaxBatch per FASE — until its request is
// through. A request another goroutine is committing is waited out on the
// lock. Err is nil only after the batch containing the mutation has
// committed and its flushes completed, so an acked mutation survives any
// crash; ErrCrashed means it was not acked and, after Recover, is either
// absent or fully applied, never torn: fully applied when the crash came
// between the durable commit and the ack, or, for an in-place overwrite,
// after the write-back of its key's line; rolled back otherwise. A batch
// returns the first error of its shard parts.
func (t *Ticket) Wait() Result {
	if len(t.parts) > 0 {
		var res Result
		for i := range t.parts {
			if r := t.parts[i].Wait(); r.Err != nil && res.Err == nil {
				res = r
			}
		}
		return res
	}
	if !t.done() {
		t.sh.serve(t)
	}
	return t.res
}

// request is one queued request; t carries the ack after the containing
// batch has committed and flushed. For counter ops v is the delta; for
// opPuts the payload is pairs and k/v are unused; OpGet uses only k.
type request struct {
	op    Op
	k, v  uint64
	pairs []Pair // opPuts only; shard-local, aliases t.grouped
	t     *Ticket
}

// reqCost is a request's logical op count: a batched put carries one op
// per pair (never less than one, so a batch always makes progress),
// everything else is one. The group-commit bound counts logical ops, so an
// MPUT of n pairs weighs the same as n PUTs.
func reqCost(r *request) int {
	if r.op == opPuts && len(r.pairs) > 1 {
		return len(r.pairs)
	}
	return 1
}

// logicalOps sums reqCost over a batch's mutations: what the stats count.
// A queued GET weighs on the gather bound but is no committed op, so the
// flush-per-op ratio moves only when mutations share a FASE.
func logicalOps(batch []request) int {
	n := 0
	for i := range batch {
		if batch[i].op != OpGet {
			n += reqCost(&batch[i])
		}
	}
	return n
}

// readOnly reports whether a batch holds only GETs.
func readOnly(batch []request) bool {
	for i := range batch {
		if batch[i].op != OpGet {
			return false
		}
	}
	return true
}

// genPages are the pages superseded by the commit of generation gen; a
// reader pinned to any generation < gen may still read them.
type genPages struct {
	gen   uint64
	pages []uint64
}

// queue is a shard's bounded FIFO of submitted requests, a ring of
// QueueDepth slots. Any goroutine pushes; requests leave only under the
// shard's commit lock, so its holder drains a FIFO no one else takes from.
type queue struct {
	mu   sync.Mutex
	buf  []request
	head int // slot of the oldest request
	n    int // requests queued
	// shut is stateServing while the queue accepts requests, then
	// stateClosed or stateCrashed: Close and the crash set it here, under
	// mu, so no push can slip past either.
	shut int
}

// errQueueFull is push's refusal of a request to a full queue.
var errQueueFull = errors.New("kv: shard queue full")

// push appends r unless the queue is full (errQueueFull) or shut (ErrClosed,
// ErrCrashed).
func (q *queue) push(r request) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case q.shut == stateCrashed:
		return ErrCrashed
	case q.shut == stateClosed:
		return ErrClosed
	case q.n == len(q.buf):
		return errQueueFull
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = r
	q.n++
	return nil
}

// close stops the queue taking requests: state is stateClosed or
// stateCrashed, and a crash overrides a close. Requests already queued stay
// for whoever takes them next.
func (q *queue) close(state int) {
	q.mu.Lock()
	q.shut = max(q.shut, state)
	q.mu.Unlock()
}

// take moves the oldest requests onto batch until they carry maxOps logical
// ops (a multi-pair request taken last may carry it past the bound) or the
// queue is empty. Commit lock holder only.
func (q *queue) take(batch []request, maxOps int) []request {
	q.mu.Lock()
	defer q.mu.Unlock()
	for n := 0; q.n > 0 && n < maxOps; q.n-- {
		r := &q.buf[q.head]
		batch = append(batch, *r)
		n += reqCost(r)
		*r = request{}
		if q.head++; q.head == len(q.buf) {
			q.head = 0
		}
	}
	return batch
}

// shard is one engine: a COW B+-tree on its own atlas thread, mutated only
// by the holder of its commit lock, read by anyone through the pins of its
// reader table.
//
// The fields fall in two groups, each on lines of its own. The read side is
// what every reader loads; of it the committer writes only window, twice
// per commit, a pre-image table, once per in-place commit, and the
// published view, once per copy-on-write commit.
// The commit side is written per batch — the queue by every submitter, the
// counters and scratch by the committer — and no reader loads it.
type shard struct {
	_ cacheLinePad

	st    *Store
	db    *mdb.DB
	cache *slotCache // answers point lookups without the tree walk (slotcache.go)
	// readers is the reader table: readers pin the view they read in it,
	// and publish scans it before recycling a page (see pin).
	readers *[readerSlots]readerSlot
	// root and gen are the published view: the last committed root and
	// generation — never a mid-transaction root, which is why readers go
	// through pin instead of db.Snapshot. publish stores root before gen, and
	// a reader loads gen before root, so the root it reads is never older
	// than the generation it pins.
	root, gen atomic.Uint64
	// window is the read guard: odd from before an in-place commit's first
	// store until its drain has made every stored word durable (inPlace,
	// applyBatch), and while publish flips the live map and stores a new
	// view. A reader never returns a word the odd window may be changing
	// (readPass), because a crash could still lose it or a later reader not
	// see it yet: in an in-place window it answers the word's pre-image
	// instead, and a publish it waits out.
	window atomic.Uint64
	// pre holds the pre-image tables, one for each parity of window>>1 (see
	// preTable), so the table of the window that last closed stays whole
	// while the committer fills the next one.
	pre [2]preTable

	_ cacheLinePad

	id int
	th *atlas.Thread

	// commitMu is the commit lock. Its holder is the shard's one mutator: it
	// takes requests off q, runs their FASE and acks them. Whoever needs a
	// queued request committed takes it — a Wait (serve), a Submit that finds
	// q full, Close — so no goroutine is kept per shard. A read that cannot
	// finish lock-free takes it too (locked).
	commitMu sync.Mutex
	q        queue

	// Reused per-batch storage, so a steady stream of commits allocates
	// nothing. Committer only. slots holds an in-place batch's value
	// words, one per request (0 for a GET).
	batchBuf []request
	resBuf   []Result
	slots    []uint64

	// pending holds the pages of each commit that readers may still reach,
	// until no pin is older than that commit; spare holds the page slices of
	// reclaimed entries for reuse, reclaim is publish's scratch, and
	// superseded is the entry of the commit not yet published, whose pages
	// publish marks dead. Committer only.
	pending    []genPages
	spare      [][]uint64
	reclaim    []uint64
	superseded []uint64

	counters
}

// cacheLinePad keeps the fields on either side of it off each other's cache
// lines.
type cacheLinePad struct{ _ [64]byte }

// preTable is a pre-image table. Before an in-place window opens, inPlace
// stores in it one entry per mutation of the batch, in queue order, then
// their count, then the odd value window is about to take: readers trust
// a table only while win matches the odd window they read it in, so no
// table is theirs while a copy-on-write publish holds window odd. A
// table's entries stay as they are until the committer fills it again for
// the odd window four past win, which it does while window is win+3. Each
// has MaxBatch entries, the most mutations a batch carries.
type preTable struct {
	win atomic.Uint64
	n   atomic.Int32
	e   []preImage
}

// preImage is one entry of a pre-image table: the address of a value word
// an in-place batch overwrites and the word's value before the batch,
// which is durable.
type preImage struct{ slot, val atomic.Uint64 }

// table returns the pre-image table for odd window value w.
func (sh *shard) table(w uint64) *preTable { return &sh.pre[w>>1&1] }

// preImage returns the pre-image t's first n entries give the word at
// slot, if they name it.
func (t *preTable) preImage(n int32, slot uint64) (uint64, bool) {
	for i := range n {
		if e := &t.e[i]; e.slot.Load() == slot {
			return e.val.Load(), true
		}
	}
	return 0, false
}

// readerSlots is the size of each shard's reader table. Every pin is a read
// in progress, so a reader always finds a slot soon.
const readerSlots = 64

// readerSlot is one line of a shard's reader table. A reader claims a free
// slot and pins there the generation it reads; while it holds the slot it is
// the slot's one writer, and on its own line, so a read stores to no line
// another reader uses.
type readerSlot struct {
	// pin is 0 while the slot is free, else the pinned generation + 1.
	pin atomic.Uint64
	// gets and descents count the Gets served through the slot and the
	// slot-cache misses among them that walked the tree; Stats folds them
	// with the committer's own counts.
	gets, descents atomic.Uint64
	_              [64 - 24]byte
}

// bump adds one to a counter with one writer: a plain store, no
// interlocked instruction.
func bump(c *atomic.Uint64) { c.Store(c.Load() + 1) }

func newShard(s *Store, id int, th *atlas.Thread, db *mdb.DB) *shard {
	sh := &shard{
		id: id, st: s, th: th, db: db,
		q:       queue{buf: make([]request, s.opts.QueueDepth)},
		readers: new([readerSlots]readerSlot),
	}
	for i := range sh.pre {
		sh.pre[i].e = make([]preImage, s.opts.MaxBatch)
	}
	sh.root.Store(db.Snapshot())
	sh.gen.Store(db.Generation())
	sh.cache = newSlotCache(db, s.opts.PoolPages)
	db.SetFreeHook(sh.onFreed)
	return sh
}

// view loads the published view: gen first, then a root at least as new.
func (sh *shard) view() (root, gen uint64) {
	gen = sh.gen.Load()
	return sh.root.Load(), gen
}

// pin claims a free reader slot, trying from hint onward, and pins the
// published view there: it stores the view's generation + 1, then loads the
// published generation again and, until the two agree, pins the newer view.
// publish recycles a page freed by commit G only after it has published G
// and found no pin below G, and a pin that agrees with the published
// generation after it was stored was stored before any such scan could miss
// it: so no page reachable from the returned root is recycled until unpin.
// The slot is released by unpin.
//
// The pin comes before the state check, as the crash sets the state before
// it waits out the pins: either the crash waits for this reader, or the
// reader sees the crash and unpins with ErrCrashed.
func (sh *shard) pin(hint uint32) (rs *readerSlot, root, gen uint64, err error) {
	root, gen = sh.view()
	rs = sh.claim(hint, gen+1)
	for g := sh.gen.Load(); g != gen; g = sh.gen.Load() {
		root, gen = sh.view()
		rs.pin.Store(gen + 1)
	}
	if sh.st.state.Load() == stateCrashed {
		rs.unpin()
		return nil, 0, 0, ErrCrashed
	}
	return rs, root, gen, nil
}

// claim takes the first free slot from hint onward, storing word into it.
// When every slot is busy it yields between passes: every pin is a read in
// progress.
func (sh *shard) claim(hint uint32, word uint64) *readerSlot {
	for i := hint; ; i++ {
		rs := &sh.readers[i%readerSlots]
		if rs.pin.Load() == 0 && rs.pin.CompareAndSwap(0, word) {
			return rs
		}
		if (i+1-hint)%readerSlots == 0 {
			runtime.Gosched()
		}
	}
}

// unpin frees the slot.
func (rs *readerSlot) unpin() { rs.pin.Store(0) }

// oldestPin returns the lowest generation any slot pins, or MaxUint64.
func (sh *shard) oldestPin() uint64 {
	oldest := uint64(math.MaxUint64)
	for i := range sh.readers {
		if p := sh.readers[i].pin.Load(); p != 0 {
			oldest = min(oldest, p-1)
		}
	}
	return oldest
}

// waitReads waits until no slot holds a pin: the crash's wait for the
// reads in flight, after it has set the state that stops new ones.
func (sh *shard) waitReads() {
	for i := range sh.readers {
		for sh.readers[i].pin.Load() != 0 {
			runtime.Gosched()
		}
	}
}

// locked runs fn on the committed root under the shard's commit lock: the
// read of a Scan, which must see one tree throughout, and of a Get or
// GetBatch whose lock-free passes all failed. Under the lock no commit is
// in flight and none can start, so no window is open, the live map holds
// still and no page is recycled: fn needs no pin and no guard, and may use
// the committer's counters. It fails only once the store is crashing: the
// crash takes every commit lock before it drops the heap's volatile view,
// and an in-place window it abandons never closes.
func (sh *shard) locked(fn func(root uint64)) error {
	sh.commitMu.Lock()
	defer sh.commitMu.Unlock()
	if sh.st.crashing.Load() {
		return ErrCrashed
	}
	fn(sh.root.Load())
	return nil
}

// readPasses bounds the lock-free passes a read makes before it reads
// locked instead. A pass fails only when a copy-on-write commit publishes
// during it, or more than one in-place window opens or closes during its
// guarded loads, so the bound is met by a reader starved by a run of
// commits.
const readPasses = 64

// readPass is one attempt at reading a shard. It pins the published view
// (begin), resolves each key's value word in it (slot), and then loads the
// words under the read guard (guard, load), which holds when window is
// where it was or has moved past no more than one in-place window's open
// or close (holds):
//   - unmoved, every word loaded was durable: in an in-place window, a word
//     the batch overwrites is answered from its pre-image and no other
//     word changes;
//   - moved from odd to even, the loads are the state before that window's
//     batch, and its table is still whole;
//   - moved from even by one or two (an in-place window opened, and maybe
//     closed), a word that window's table names may hold its new value, so
//     each such word is given its pre-image (fixup), which leaves the
//     state before the batch.
//
// The words resolved stay the view's until a copy-on-write commit
// publishes, which moves the generation.
type readPass struct {
	rs        *readerSlot
	root, gen uint64
	w         uint64    // window, as guard loaded it
	tab       *preTable // the open window's table, or the one to fix up from
	n         int32     // entries of tab in force
	guarded   bool      // guard found no copy-on-write publish in progress
	fix       bool      // the loads stand once fixed up from tab
}

// begin pins a pass of a read (see pin), which fails only on a crash. hint
// is where pin starts looking for a free slot.
func (sh *shard) begin(hint uint32) (p readPass, err error) {
	p.rs, p.root, p.gen, err = sh.pin(hint)
	return p, err
}

// guard loads window ahead of the pass's loads and reports whether they
// may go on: not while a copy-on-write publish holds window odd, which no
// table names.
func (sh *shard) guard(p *readPass) bool {
	p.guarded = true
	if p.w = sh.window.Load(); p.w&1 != 0 {
		if t := sh.table(p.w); t.win.Load() == p.w {
			p.tab, p.n = t, t.n.Load()
		} else {
			p.guarded = false
		}
	}
	return p.guarded
}

// load returns the value of the word at slot (0 for an absent key): its
// pre-image when the in-place window guard found open overwrites it, else
// the word itself, which the window leaves alone.
func (sh *shard) load(p *readPass, slot uint64) uint64 {
	if slot == 0 {
		return 0
	}
	if p.tab != nil {
		if v, ok := p.tab.preImage(p.n, slot); ok {
			return v
		}
	}
	return sh.db.SlotValue(slot)
}

// holds reports whether pass p's loads stand (see readPass); when they
// stand only once fixed up (fixup, fixed), it sets p.fix and points p.tab
// at the table to fix them up from.
func (sh *shard) holds(p *readPass) bool {
	if !p.guarded || sh.gen.Load() != p.gen {
		return false
	}
	switch w := sh.window.Load(); {
	case w == p.w, w == p.w+1 && p.w&1 != 0:
		return true
	case p.w&1 == 0 && w <= p.w+2:
		if t := sh.table(p.w + 1); t.win.Load() == p.w+1 {
			p.tab, p.n, p.fix = t, t.n.Load(), true
			return true
		}
	}
	return false
}

// fixup returns the pre-image of the word at slot from the table of the
// window that opened during pass p's loads, if it names the word, else v,
// the value loaded.
func (sh *shard) fixup(p *readPass, slot, v uint64) uint64 {
	if pv, ok := p.tab.preImage(p.n, slot); ok {
		return pv
	}
	return v
}

// fixed reports whether pass p's fixup stands: its table was whole, as
// window has not reached three past the table's own, and any word resolved
// again for it (GetBatch) is the view's, as no copy-on-write commit has
// published nor holds window odd.
func (sh *shard) fixed(p *readPass) bool {
	f := p.w + 1
	if sh.gen.Load() != p.gen {
		return false
	}
	w := sh.window.Load()
	return w <= f+1 || w == f+2 && sh.table(w).win.Load() == w
}

// end closes pass p, which read n keys, and returns ok: whether its reads
// stand. Reads that stand count in the pass's slot. A pass that met a
// publish yields once it has unpinned.
func (sh *shard) end(p *readPass, n uint64, ok bool) bool {
	if ok {
		p.rs.gets.Store(p.rs.gets.Load() + n)
	}
	p.rs.unpin()
	if !p.guarded {
		runtime.Gosched()
	}
	return ok
}

// read looks k up in the published tree: lock-free passes until one
// stands, a locked read after readPasses of them. The first pass is spelled
// out for its common case, an even window that does not move, which is
// most of what a read-mostly shard serves; any other outcome goes round the
// general loop.
func (sh *shard) read(k uint64, hint uint32) (uint64, bool, error) {
	rs, root, gen, err := sh.pin(hint)
	if err != nil {
		return 0, false, err
	}
	slot := sh.lookup(root, k, &rs.descents)
	if w := sh.window.Load(); w&1 == 0 {
		var v uint64
		if slot != 0 {
			v = sh.db.SlotValue(slot)
		}
		if sh.window.Load() == w && sh.gen.Load() == gen {
			bump(&rs.gets)
			rs.unpin()
			return v, slot != 0, nil
		}
	}
	rs.unpin()
	for tries := 1; tries < readPasses; tries++ {
		p, err := sh.begin(hint)
		if err != nil {
			return 0, false, err
		}
		slot := sh.lookup(p.root, k, &p.rs.descents)
		var v uint64
		if sh.guard(&p) {
			v = sh.load(&p, slot)
		}
		ok := sh.holds(&p)
		if ok && p.fix {
			v = sh.fixup(&p, slot, v)
			ok = sh.fixed(&p)
		}
		if sh.end(&p, 1, ok) {
			return v, slot != 0, nil
		}
	}
	var v uint64
	var found bool
	err = sh.locked(func(root uint64) {
		v, found = sh.get(root, k, &sh.descents)
		sh.gets.Add(1)
	})
	return v, found, err
}

// inPlace reports whether a batch can commit in place, resolving every
// mutation's value word into sh.slots on the way: every mutation is a
// single-key put or counter op of a key already present. The test that
// needs no tree descent comes first. On true the batch's pre-images are
// published and the in-place window is open.
func (sh *shard) inPlace(batch []request) bool {
	for i := range batch {
		switch batch[i].op {
		case OpGet, OpPut, OpIncr, OpDecr:
		default:
			return false
		}
	}
	root := sh.root.Load()
	slots := sh.slots[:0]
	for i := range batch {
		var slot uint64
		if batch[i].op != OpGet {
			if slot = sh.lookup(root, batch[i].k, &sh.descents); slot == 0 {
				sh.slots = slots
				return false
			}
		}
		slots = append(slots, slot)
	}
	sh.slots = slots
	sh.publishPreImages()
	sh.window.Add(1)
	return true
}

// publishPreImages fills the pre-image table of the window about to open
// from the batch's resolved words: each word's current value, durable
// since the last window closed, then the count, then the window's odd
// value. Readers take a table only once window has its value, so filling
// it before the open puts every entry ahead of the batch's first store. A
// word the batch overwrites twice gets two entries with one value.
func (sh *shard) publishPreImages() {
	w := sh.window.Load() + 1
	t := sh.table(w)
	n := int32(0)
	for _, slot := range sh.slots {
		if slot != 0 {
			t.e[n].slot.Store(slot)
			t.e[n].val.Store(sh.db.SlotValue(slot))
			n++
		}
	}
	t.n.Store(n)
	t.win.Store(w)
}

// onFreed is the mdb free hook: it runs on the committer during
// Commit, parking a copy of the superseded pages until readers drain.
func (sh *shard) onFreed(gen uint64, pages []uint64) {
	var held []uint64
	if n := len(sh.spare); n > 0 {
		held, sh.spare = sh.spare[n-1][:0], sh.spare[:n-1]
	}
	held = append(held, pages...)
	sh.superseded = held
	sh.pending = append(sh.pending, genPages{gen: gen, pages: held})
}

// publish makes the last commit visible to readers and recycles every
// parked page no pin can still reach. After a copy-on-write commit (cow) it
// flips the slot cache's live map to the new tree and then stores the new
// view, so no pin sees the new generation before its pages are live; an
// in-place commit changed no page, no root and no generation. The flip and
// the store happen inside an odd window no pre-image table names, so a read
// that overlaps them tries again (begin): no read returns a value the flip
// made visible while a later read could still pin the old view and descend
// to the old one. The reader
// table is scanned only while pages are parked, after the view is stored
// (see pin).
func (sh *shard) publish(cow bool) {
	if cow {
		sh.window.Add(1)
		sh.flipLive()
		if publishHook != nil {
			publishHook()
		}
		sh.root.Store(sh.db.Snapshot())
		sh.gen.Store(sh.db.Generation())
		sh.window.Add(1)
	}
	if len(sh.pending) == 0 {
		return
	}
	oldest := sh.oldestPin()
	reclaim := sh.reclaim[:0]
	keep := sh.pending[:0]
	for _, gp := range sh.pending {
		// Pages freed by commit gen are needed by pins of generation
		// < gen only.
		if oldest >= gp.gen {
			reclaim = append(reclaim, gp.pages...)
			sh.spare = append(sh.spare, gp.pages)
		} else {
			keep = append(keep, gp)
		}
	}
	sh.pending = keep
	sh.reclaim = reclaim
	if len(reclaim) > 0 {
		if recycleHook != nil {
			recycleHook(sh, reclaim)
		}
		sh.db.RecyclePages(reclaim)
	}
}

// Test seams in publish. recycleHook, when set, sees every page publish
// recycles, before the page allocator may hand it out: tests poison the
// pages, so a reader still on one reads garbage. publishHook, when set,
// runs between a copy-on-write publish's live-map flip and its view store:
// tests park a publish there.
var (
	recycleHook func(sh *shard, pages []uint64)
	publishHook func()
)

// serve commits the shard's queue on the caller's goroutine until t, whose
// request was queued here, has completed: gather, commit, repeat. Each pass
// takes the commit lock's view of the queue — everything queued, up to
// MaxBatch logical ops — and commits it as one FASE, so requests queued
// while a commit runs share the next one: group commit is natural
// batching, a lone request pays no delay, and there is no second commit
// path. A waiter whose request another goroutine is committing blocks on
// the lock and finds it done. Once the store is crashing, the crash
// completes t. A nil t is Close's graceful drain: serve then commits until
// the queue is empty.
func (sh *shard) serve(t *Ticket) {
	sh.commitMu.Lock()
	for (t == nil || !t.done()) && !sh.st.crashing.Load() {
		batch := sh.gather()
		if len(batch) == 0 {
			break
		}
		sh.commitBatch(batch)
	}
	sh.commitMu.Unlock()
	if t != nil && !t.done() {
		t.sleep()
	}
}

// commitQueued commits one batch of whatever is queued: Submit's move when
// it finds the queue full, in place of waiting for room.
func (sh *shard) commitQueued() {
	sh.commitMu.Lock()
	if !sh.st.crashing.Load() {
		if batch := sh.gather(); len(batch) > 0 {
			sh.commitBatch(batch)
		}
	}
	sh.commitMu.Unlock()
}

// gather takes one group commit off the queue without waiting: whatever is
// queued, up to MaxBatch logical ops. The batch lives in the shard's reused
// buffer (see shard.batchBuf). Commit lock holder only.
func (sh *shard) gather() []request {
	batch := sh.q.take(sh.batchBuf[:0], sh.st.opts.MaxBatch)
	sh.batchBuf = batch[:0]
	return batch
}

// resultsFor returns the shard's reused result slice, zeroed, for a batch
// of n requests.
func (sh *shard) resultsFor(n int) []Result {
	res := sh.resBuf
	if cap(res) < n {
		res = make([]Result, n)
		sh.resBuf = res
	}
	res = res[:n]
	clear(res)
	return res
}

func nackAll(batch []request, err error) {
	for i := range batch {
		batch[i].t.complete(Result{Err: err})
	}
}

// batchOutcome describes how applyBatch left the shard's transaction.
type batchOutcome uint8

const (
	batchCommitted     batchOutcome = iota
	batchBeginErr                   // opening the transaction failed
	batchFailed                     // pre-commit op failure; transaction aborted
	batchCommitErr                  // the durable commit itself failed
	batchCrashInjected              // power failure injected mid-FASE on this shard
	batchCrashRace                  // a concurrent crash caught this shard mid-FASE
)

// commitBatch applies the batch inside one FASE and acks after the commit
// is durable. Commit lock holder only.
func (sh *shard) commitBatch(batch []request) {
	if sh.st.crashing.Load() {
		nackAll(batch, ErrCrashed)
		return
	}
	results := sh.resultsFor(len(batch))
	if readOnly(batch) {
		// Nothing to commit, and the committed tree is durable: the GETs
		// read it and ack without a FASE.
		sh.readCommitted(batch, results)
		sh.noteOps(batch)
		ackAll(batch, results)
		return
	}
	inPlace := sh.inPlace(batch)
	outcome, failed := sh.applyBatch(batch, results, inPlace)
	switch outcome {
	case batchBeginErr, batchCommitErr:
		nackAll(batch, failed)
		return
	case batchFailed:
		// The aborted writes never happened, so the batch's GETs are
		// answered from the committed tree; its mutations fail.
		sh.aborts.Add(1)
		sh.readCommitted(batch, results)
		for i := range batch {
			if batch[i].op != OpGet {
				results[i] = Result{Err: failed}
			}
		}
		ackAll(batch, results)
		return
	case batchCrashInjected:
		// Injected power failure: if it hit a copy-on-write FASE the undo log
		// is still active and Recover rolls the batch back in full; an
		// in-place FASE leaves each overwritten word old or new, as far as
		// its drain got; if it hit at the ack boundary the batch is durable
		// but nacked. The service contract permits all three (ErrCrashed
		// promises nothing either way).
		sh.st.initiateCrash(sh)
		nackAll(batch, ErrCrashed)
		return
	case batchCrashRace:
		nackAll(batch, ErrCrashed)
		return
	}
	sh.publish(!inPlace)
	sh.note(batch, !inPlace)
	ackAll(batch, results)
}

// readCommitted answers the batch's GETs from the tree outside any FASE,
// which is the published one, through the slot cache.
func (sh *shard) readCommitted(batch []request, results []Result) {
	for i := range batch {
		if batch[i].op == OpGet {
			results[i].Val, results[i].Found = sh.get(sh.root.Load(), batch[i].k, &sh.descents)
		}
	}
}

func ackAll(batch []request, results []Result) {
	for i := range batch {
		batch[i].t.complete(results[i])
	}
}

// applyBatch runs the whole FASE — Begin, the batch's mutations, the
// pre-commit and ack events, and the durable commit — as a copy-on-write
// transaction, or, when inPlace, as bare stores into the words inPlace
// resolved (put), whose FASE-end drain is the commit. An injected power
// failure — a panic with an atlas.Crash out of Options.Events, at a store,
// flush, undo-log write or the batch's own sites — abandons the FASE with
// its undo log still active, exactly as a power failure at that instruction
// would; panics of any other type propagate.
func (sh *shard) applyBatch(batch []request, results []Result, inPlace bool) (outcome batchOutcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(atlas.Crash); !ok {
				panic(r)
			}
			outcome, err = batchCrashInjected, ErrCrashed
		}
	}()
	if inPlace {
		sh.th.FASEBegin()
	} else if err := sh.db.Begin(); err != nil {
		return batchBeginErr, err
	}
	var failed error
	for i := range batch {
		r := &batch[i]
		switch r.op {
		case OpPut:
			failed = sh.put(inPlace, i, r.k, r.v)
		case OpDel:
			results[i].Found, failed = sh.db.Delete(r.k)
		case opPuts:
			for _, p := range r.pairs {
				if failed = sh.db.Put(p.K, p.V); failed != nil {
					break
				}
			}
		case OpIncr, OpDecr:
			// A read-modify-write inside the batch's FASE (earlier batch ops
			// are visible: Get sees the in-transaction tree, and an in-place
			// batch's stores are already in its words).
			d := r.v
			if r.op == OpDecr {
				d = -d
			}
			var cur uint64
			if inPlace {
				cur = sh.db.SlotValue(sh.slots[i])
			} else {
				cur, _ = sh.db.Get(r.k)
			}
			results[i].Val = cur + d
			failed = sh.put(inPlace, i, r.k, cur+d)
		case OpGet:
			// The in-transaction tree: exactly the writes queued ahead.
			// An in-place batch changes no page, so its tree is the
			// published one, which the slot cache answers for.
			if inPlace {
				results[i].Val, results[i].Found = sh.get(sh.root.Load(), r.k, &sh.descents)
			} else {
				results[i].Val, results[i].Found = sh.db.Get(r.k)
			}
		}
		if failed != nil {
			break
		}
	}
	if failed != nil {
		// Shed the whole batch: roll the transaction back so the committed
		// tree is untouched, and surface the cause (typically
		// mdb.ErrPoolExhausted) to every mutation. (An in-place batch
		// allocates nothing and cannot fail.)
		if aerr := sh.db.Abort(); aerr != nil {
			failed = fmt.Errorf("%w (abort: %v)", failed, aerr)
		}
		return batchFailed, failed
	}
	ev := sh.st.opts.Events
	if ev != nil {
		ev(atlas.SitePreCommit, sh.id, uint64(len(batch)))
	}
	if sh.st.crashing.Load() {
		// A concurrent crash caught us mid-FASE: abandon without
		// committing, exactly as the power failure would.
		return batchCrashRace, ErrCrashed
	}
	if inPlace {
		// The drain makes every stored word durable; only then may readers
		// see them instead of their pre-images.
		sh.th.FASEEnd()
		sh.window.Add(1)
	} else if err := sh.db.Commit(); err != nil {
		return batchCommitErr, err
	}
	if ev != nil {
		// The last crash boundary: the commit is durable but no requester
		// has been told. A crash here must lose no data, only acks.
		ev(atlas.SiteAck, sh.id, uint64(len(batch)))
	}
	return batchCommitted, nil
}

// put stores v for k, the i-th request of the batch: into the word
// inPlace resolved for it, or through the write transaction.
func (sh *shard) put(inPlace bool, i int, k, v uint64) error {
	if inPlace {
		sh.db.Overwrite(sh.slots[i], v)
		return nil
	}
	return sh.db.Put(k, v)
}
