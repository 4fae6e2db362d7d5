package kv

import (
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
// snapshot of any generation < gen may still read them.
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
}

// push appends r unless the queue is full.
func (q *queue) push(r request) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == len(q.buf) {
		return false
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = r
	q.n++
	return true
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
// by the holder of its commit lock, read by anyone through pinned
// snapshots.
type shard struct {
	id int
	st *Store
	th *atlas.Thread
	db *mdb.DB

	// commitMu is the commit lock. Its holder is the shard's one mutator: it
	// takes requests off q, runs their FASE and acks them. Whoever needs a
	// queued request committed takes it — a Wait (serve), a Submit that finds
	// q full, Close — so no goroutine is kept per shard.
	commitMu sync.Mutex
	q        queue

	// Reused per-batch storage, so a steady stream of commits allocates
	// nothing. Committer only. slots holds an in-place batch's value
	// words, one per request (0 for a GET).
	batchBuf []request
	resBuf   []Result
	slots    []uint64

	// Snapshot bookkeeping. curRoot/curGen are the last *committed* root
	// and generation — never a mid-transaction root, which is why readers
	// must go through acquire instead of db.Snapshot.
	snapMu  sync.Mutex
	curRoot uint64
	curGen  uint64
	active  map[uint64]int // snapshot generation → pin count
	pending []genPages     // freed pages awaiting reader drain
	// cuts counts pinned consistent cuts (acquireCut): no in-place commit
	// opens while it is above 0. Raised under snapMu, where openWindow
	// checks it; inPlace also reads it without the lock, as a hint.
	cuts atomic.Int32
	// spare holds the page slices of reclaimed pending entries for reuse and
	// reclaim is publish's scratch. Committer only.
	spare   [][]uint64
	reclaim []uint64

	// cache answers point lookups without the tree walk (slotcache.go).
	// superseded is the pending entry of the commit not yet published, whose
	// pages publish marks dead. Committer only.
	cache      *slotCache
	superseded []uint64

	// window is the in-place read guard: odd from before an in-place
	// commit's first store until its drain has made every stored word
	// durable (openWindow, applyBatch). A reader never returns a word it
	// loaded while it was odd (read), because a crash could still lose it.
	window atomic.Uint64

	counters
}

func newShard(s *Store, id int, th *atlas.Thread, db *mdb.DB) *shard {
	sh := &shard{
		id: id, st: s, th: th, db: db,
		q:      queue{buf: make([]request, s.opts.QueueDepth)},
		active: make(map[uint64]int),
	}
	sh.curRoot = db.Snapshot()
	sh.curGen = db.Generation()
	sh.cache = newSlotCache(db, s.opts.PoolPages)
	db.SetFreeHook(sh.onFreed)
	return sh
}

// acquire pins the current committed view for a reader.
func (sh *shard) acquire() (root, gen uint64) {
	sh.snapMu.Lock()
	root, gen = sh.curRoot, sh.curGen
	sh.active[gen]++
	sh.snapMu.Unlock()
	return root, gen
}

// release unpins; eligible pages are recycled at the shard's next commit
// (the page allocator belongs to the commit lock holder).
func (sh *shard) release(gen uint64) {
	sh.snapMu.Lock()
	if sh.active[gen]--; sh.active[gen] <= 0 {
		delete(sh.active, gen)
	}
	sh.snapMu.Unlock()
}

// acquireCut pins the current committed view as a consistent cut — a
// Snapshot, one shard's share of a Scan or GetBatch, or a Get that lost a
// race with an in-place commit (read) — whose every read must see the
// same tree. Counting the cut first stops any committer from opening another
// in-place window, so the wait is for at most the one already open; while
// the cut is held the shard commits copy-on-write only, so no leaf word
// the cut can reach changes under it. It fails only when the store
// crashes while it waits (an in-place window a crash abandons never
// closes).
func (sh *shard) acquireCut() (root, gen uint64, err error) {
	sh.snapMu.Lock()
	sh.cuts.Add(1)
	sh.snapMu.Unlock()
	for sh.window.Load()&1 != 0 {
		if sh.st.crashing.Load() {
			sh.cuts.Add(-1)
			return 0, 0, ErrCrashed
		}
		runtime.Gosched()
	}
	root, gen = sh.acquire()
	return root, gen, nil
}

// releaseCut unpins a cut taken by acquireCut.
func (sh *shard) releaseCut(gen uint64) {
	sh.release(gen)
	sh.cuts.Add(-1)
}

// read looks k up in the published tree outside any in-place window, so
// the value returned is durable: pin, then the slot cache, which descends
// from the pinned root only on a miss. One lock-free pass serves unless
// its load overlapped a window; then it reads again through a cut, which
// waits out at most the window then open (the cut keeps committers from
// opening another). Like acquireCut it fails only when the store crashes
// while it waits.
func (sh *shard) read(k uint64) (uint64, bool, error) {
	if w := sh.window.Load(); w&1 == 0 {
		root, gen := sh.acquire()
		v, ok := sh.get(root, k)
		sh.release(gen)
		if sh.window.Load() == w {
			return v, ok, nil
		}
	}
	root, gen, err := sh.acquireCut()
	if err != nil {
		return 0, false, err
	}
	v, ok := sh.get(root, k)
	sh.releaseCut(gen)
	return v, ok, nil
}

// inPlace reports whether a batch can commit in place, resolving every
// mutation's value word into sh.slots on the way: no consistent cut is
// pinned, and every mutation is a single-key put or counter op of a key
// already present. The tests that need no tree descent come first. On true
// the in-place window is open (see openWindow).
func (sh *shard) inPlace(batch []request) bool {
	if sh.cuts.Load() > 0 {
		return false
	}
	for i := range batch {
		switch batch[i].op {
		case OpGet, OpPut, OpIncr, OpDecr:
		default:
			return false
		}
	}
	slots := sh.slots[:0]
	for i := range batch {
		var slot uint64
		if batch[i].op != OpGet {
			if slot = sh.lookup(sh.curRoot, batch[i].k); slot == 0 {
				sh.slots = slots
				return false
			}
		}
		slots = append(slots, slot)
	}
	sh.slots = slots
	return sh.openWindow()
}

// openWindow makes the in-place window odd unless a consistent cut is
// pinned. It is checked and set under snapMu, where acquireCut counts its
// cut, so a cut and a window never overlap.
func (sh *shard) openWindow() bool {
	sh.snapMu.Lock()
	defer sh.snapMu.Unlock()
	if sh.cuts.Load() > 0 {
		return false
	}
	sh.window.Add(1)
	return true
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
	sh.snapMu.Lock()
	sh.pending = append(sh.pending, genPages{gen: gen, pages: held})
	sh.snapMu.Unlock()
}

// publish installs the newly committed root for readers and recycles every
// parked page no live snapshot can still reach. After a copy-on-write
// commit (cow) it first flips the slot cache's live map to the new tree,
// under the same lock; an in-place commit changed no page.
func (sh *shard) publish(cow bool) {
	sh.snapMu.Lock()
	if cow {
		sh.flipLive()
	}
	sh.curRoot = sh.db.Snapshot()
	sh.curGen = sh.db.Generation()
	minGen := uint64(math.MaxUint64)
	for g := range sh.active {
		if g < minGen {
			minGen = g
		}
	}
	reclaim := sh.reclaim[:0]
	keep := sh.pending[:0]
	for _, gp := range sh.pending {
		// Pages freed by commit gen are needed by snapshots with
		// generation < gen only.
		if minGen >= gp.gen {
			reclaim = append(reclaim, gp.pages...)
			sh.spare = append(sh.spare, gp.pages)
		} else {
			keep = append(keep, gp)
		}
	}
	sh.pending = keep
	sh.snapMu.Unlock()
	sh.reclaim = reclaim
	if len(reclaim) > 0 {
		sh.db.RecyclePages(reclaim)
	}
}

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
	sh.note(batch)
	ackAll(batch, results)
}

// readCommitted answers the batch's GETs from the tree outside any FASE,
// which is the published one, through the slot cache.
func (sh *shard) readCommitted(batch []request, results []Result) {
	for i := range batch {
		if batch[i].op == OpGet {
			results[i].Val, results[i].Found = sh.get(sh.curRoot, batch[i].k)
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
				results[i].Val, results[i].Found = sh.get(sh.curRoot, r.k)
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
		// see them.
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
