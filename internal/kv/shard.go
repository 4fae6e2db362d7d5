package kv

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/mdb"
)

// Op names a single-key mutation for Store.Submit.
type Op uint8

const (
	OpPut Op = iota
	OpDel
	// OpIncr and OpDecr add or subtract the operand (wrapping uint64
	// arithmetic; a missing key counts from zero).
	OpIncr
	OpDecr
	// opPuts is a batched put (Store.SubmitBatch / the wire protocol's
	// MPUT): one request carrying a shard-local pairs slice, acked once after
	// the whole slice is durable. It rides the queue as a single request so
	// an MPUT costs one enqueue/ack per shard touched instead of one per pair.
	opPuts
)

// Result is the outcome of one mutation: Found is a delete's "was present",
// Val a counter op's post-op value at its serialization point.
type Result struct {
	Err   error
	Found bool
	Val   uint64
}

// Ticket is the caller-owned completion slot of one submitted mutation. The
// zero value is ready to use, and a ticket is reusable: once Wait has
// returned it may be submitted again, so a caller that keeps its tickets (a
// connection's window, a worker's loop) submits and completes without
// allocating. A ticket carries one mutation at a time and must not be
// copied after first use.
type Ticket struct {
	ch chan struct{} // buffered(1): signalled by whichever part completes last

	mu    sync.Mutex // parts of a batch complete on different shard writers
	parts int        // shard requests still outstanding
	res   Result     // the outcome; for a batch, its first error

	// grouped is SubmitBatch's scratch: the batch's pairs counting-sorted by
	// shard. The shard requests alias it until Wait returns.
	grouped []Pair
}

// arm readies t for a mutation made of parts shard requests.
func (t *Ticket) arm(parts int) {
	if t.ch == nil {
		t.ch = make(chan struct{}, 1)
	}
	t.parts = parts
	t.res = Result{}
}

// complete delivers one part's outcome; the last part wakes the waiter.
// Every request that was armed is completed exactly once — by its shard
// writer (ack or nack), by the crash draining the queues, or by Submit
// itself when the store refuses it — which is what lets Wait block on the
// ticket alone.
func (t *Ticket) complete(res Result) {
	t.mu.Lock()
	if t.res.Err == nil {
		t.res = res
	}
	t.parts--
	last := t.parts == 0
	t.mu.Unlock()
	if last {
		t.ch <- struct{}{}
	}
}

// Wait blocks until the submitted mutation has completed and returns its
// outcome. Err is nil only after the batch containing the mutation has
// committed and its flushes completed, so an acked mutation survives any
// crash; ErrCrashed means it was not acked and, after Recover, is either
// absent or (a crash between the durable commit and the ack) fully applied.
func (t *Ticket) Wait() Result {
	<-t.ch
	return t.res
}

// request is one queued mutation; t carries the ack after the containing
// batch has committed and flushed. For counter ops v is the delta; for
// opPuts the payload is pairs and k/v are unused.
type request struct {
	op    Op
	k, v  uint64
	pairs []Pair // opPuts only; shard-local, aliases t.grouped
	t     *Ticket
}

// reqCost is a request's logical op count: a batched put carries one op
// per pair (never less than one, so a batch always makes progress),
// everything else is one. Group-commit bounds, journal sizing, and stats
// all count logical ops so an MPUT of n pairs weighs the same as n PUTs.
func reqCost(r *request) int {
	if r.op == opPuts && len(r.pairs) > 1 {
		return len(r.pairs)
	}
	return 1
}

// logicalOps sums reqCost over a batch.
func logicalOps(batch []request) int {
	n := 0
	for i := range batch {
		n += reqCost(&batch[i])
	}
	return n
}

// genPages are the pages superseded by the commit of generation gen; a
// snapshot of any generation < gen may still read them.
type genPages struct {
	gen   uint64
	pages []uint64
}

// flightBatch is one group commit whose FASE has been published
// (mdb.CommitPublish) but not yet settled: its epoch is draining through
// the flush pipeline while the writer applies the next batch, and its
// requesters are still waiting for acks.
type flightBatch struct {
	batch   []request
	results []Result
	pc      *mdb.PendingCommit
	root    uint64 // the published root, installed for readers at settle
	gen     uint64
	pre     core.FlushStats // thread flush counters straddling the apply
	post    core.FlushStats
	applied int  // physical ops the FASE executed (absorption accounting)
	fold    bool // parked counter ops ack with this batch (AbsorbAck boundary)
}

// shard is one engine: a COW B+-tree on its own atlas thread, mutated only
// by its writer goroutine (run), read by anyone through pinned snapshots.
type shard struct {
	id   int
	st   *Store
	th   *atlas.Thread
	db   *mdb.DB
	ch   chan request
	done chan struct{} // closed when the writer goroutine exits

	// Absorption knobs (the deadline is live: the adaptive controller
	// retargets it) and the counter accumulator. acc is writer-goroutine-owned.
	absorbThreshold  atomic.Int64
	absorbDeadlineNs atomic.Int64
	acc              accumulator

	// inFlight is the previous batch, commit-published but not settled
	// (awaited, installed for readers, acked). Non-nil only between loop
	// iterations of the overlapped protocol, when it points at flight.
	// Writer goroutine only.
	inFlight *flightBatch
	flight   flightBatch

	// Reused per-batch storage, so a steady stream of commits allocates
	// nothing. Two alternating sets: under the overlapped protocol the
	// in-flight batch still owns one while the next batch fills the other.
	batchBuf [2][]request
	resBuf   [2][]Result
	bufIdx   int

	// capSlot is the shard's advisory cache-capacity word (capacity.go).
	// Writer goroutine only.
	capSlot capSlot

	// Checkpoint state (nil when checkpointing is off). ckptCh carries
	// explicit Store.Checkpoint requests to the writer, which serves them at
	// settled points; lastCkpt/batchesSince drive the cadence triggers.
	// Writer goroutine only, except the ckptCh sends.
	ckpt         *shardCkpt
	ckptCh       chan chan error
	lastCkpt     time.Time
	batchesSince int

	// Snapshot bookkeeping. curRoot/curGen are the last *committed* root
	// and generation — never a mid-transaction root, which is why readers
	// must go through acquire instead of db.Snapshot.
	snapMu  sync.Mutex
	curRoot uint64
	curGen  uint64
	active  map[uint64]int // snapshot generation → pin count
	pending []genPages     // freed pages awaiting reader drain
	// spare holds the page slices of reclaimed pending entries for reuse and
	// reclaim is publishView's scratch. Writer goroutine only.
	spare   [][]uint64
	reclaim []uint64

	counters
}

func newShard(s *Store, id int, th *atlas.Thread, db *mdb.DB, cs capSlot) *shard {
	sh := &shard{
		id: id, st: s, th: th, db: db, capSlot: cs,
		ch:     make(chan request, s.opts.QueueDepth),
		ckptCh: make(chan chan error),
		done:   make(chan struct{}),
		active: make(map[uint64]int),
	}
	sh.lastCkpt = time.Now()
	sh.absorbThreshold.Store(int64(s.opts.Absorb.Threshold))
	sh.absorbDeadlineNs.Store(int64(s.opts.Absorb.Deadline))
	sh.curRoot = db.Snapshot()
	sh.curGen = db.Generation()
	db.SetFreeHook(sh.onFreed)
	sh.lats = make([]float64, 0, latRingCap)
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

// release unpins; eligible pages are recycled at the writer's next commit
// (the pool free list is single-writer).
func (sh *shard) release(gen uint64) {
	sh.snapMu.Lock()
	if sh.active[gen]--; sh.active[gen] <= 0 {
		delete(sh.active, gen)
	}
	sh.snapMu.Unlock()
}

// onFreed is the mdb free hook: it runs on the writer goroutine during
// Commit, parking a copy of the superseded pages until readers drain.
func (sh *shard) onFreed(gen uint64, pages []uint64) {
	var held []uint64
	if n := len(sh.spare); n > 0 {
		held, sh.spare = sh.spare[n-1][:0], sh.spare[:n-1]
	}
	held = append(held, pages...)
	sh.snapMu.Lock()
	sh.pending = append(sh.pending, genPages{gen: gen, pages: held})
	sh.snapMu.Unlock()
}

// publish installs the newly committed root for readers and recycles every
// parked page no live snapshot can still reach.
func (sh *shard) publish() { sh.publishView(sh.db.Snapshot(), sh.db.Generation()) }

// publishView is publish with an explicit root/generation: the overlapped
// protocol settles batch N after batch N+1 has already advanced the tree,
// so readers must be handed N's root, not the db's current (still
// undurable) one.
func (sh *shard) publishView(root, gen uint64) {
	sh.snapMu.Lock()
	sh.curRoot = root
	sh.curGen = gen
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

// run is the shard's writer loop: take the first waiting request, add
// whatever else is already queued (up to MaxBatch), commit it as one FASE,
// ack. The writer never waits for a batch to fill — group commit is natural
// batching: requests that arrive while a commit is in progress queue up
// behind it and form the next batch, so batches grow with load and a lone
// request pays no delay.
//
// With the flush pipeline enabled the loop is overlapped: commitBatch
// leaves the batch in flight (published, draining in the background) and
// the writer immediately starts the next batch if work is already queued —
// batch N+1's stores and undo logging run concurrently with batch N's
// drain — settling the in-flight batch (await, install root, ack) as soon
// as the queue goes idle or its successor is published.
func (sh *shard) run() {
	defer close(sh.done)
	// Parked counter requests survive loop iterations; if the writer exits
	// with any still parked (crash paths — the graceful close drains the
	// accumulator first), their deltas were never committed and nacking is
	// exact.
	defer sh.nackParked(ErrCrashed)
	for {
		if sh.inFlight != nil {
			select {
			case req, ok := <-sh.ch:
				if !ok {
					if !sh.drainAbsorb() {
						sh.settle()
					}
					return
				}
				if sh.commitBatch(sh.gatherQueued(req)) {
					return
				}
				if sh.maybeCheckpoint() {
					return
				}
			case reply := <-sh.ckptCh:
				if sh.serveCheckpoint(reply) {
					return
				}
			case <-sh.st.crashCh:
				sh.dropInFlight()
				return
			default:
				// Queue idle: stop overlapping and deliver the acks.
				if sh.settle() {
					return
				}
			}
			continue
		}
		// With counter ops parked, wake at the absorption deadline so their
		// net delta commits (and they ack) even if the queue stays idle.
		var (
			deadlineC <-chan time.Time
			timer     *time.Timer
		)
		if sh.absorbOn() && sh.acc.pending() > 0 {
			wait := time.Duration(sh.absorbDeadlineNs.Load()) - time.Since(sh.acc.opened)
			if wait < 0 {
				wait = 0
			}
			timer = time.NewTimer(wait)
			deadlineC = timer.C
		}
		// With a wall-clock checkpoint cadence configured, wake at the next
		// due time even if the queue stays idle.
		var (
			ckptC     <-chan time.Time
			ckptTimer *time.Timer
		)
		if ck := sh.ckpt; ck != nil && ck.cfg.Interval > 0 {
			wait := ck.cfg.Interval - time.Since(sh.lastCkpt)
			if wait < 0 {
				wait = 0
			}
			ckptTimer = time.NewTimer(wait)
			ckptC = ckptTimer.C
		}
		stopTimers := func() {
			if timer != nil {
				timer.Stop()
			}
			if ckptTimer != nil {
				ckptTimer.Stop()
			}
		}
		select {
		case req, ok := <-sh.ch:
			stopTimers()
			if !ok {
				if !sh.drainAbsorb() {
					sh.settle()
				}
				return
			}
			if sh.commitBatch(sh.gatherQueued(req)) {
				return
			}
			if sh.maybeCheckpoint() {
				return
			}
		case <-deadlineC:
			if ckptTimer != nil {
				ckptTimer.Stop()
			}
			if sh.commitBatch(nil) {
				return
			}
			if sh.maybeCheckpoint() {
				return
			}
		case <-ckptC:
			if timer != nil {
				timer.Stop()
			}
			if _, crashed := sh.checkpointNow(); crashed {
				return
			}
		case reply := <-sh.ckptCh:
			stopTimers()
			if sh.serveCheckpoint(reply) {
				return
			}
		case <-sh.st.crashCh:
			stopTimers()
			return
		}
	}
}

// gatherQueued collects one group commit without waiting: first plus
// whatever is already queued, up to MaxBatch logical ops. The batch lives in
// one of the shard's two reused buffers (see shard.batchBuf).
func (sh *shard) gatherQueued(first request) []request {
	maxBatch := sh.st.opts.MaxBatch
	sh.bufIdx ^= 1
	batch := append(sh.batchBuf[sh.bufIdx][:0], first)
	n := reqCost(&first)
gather:
	for n < maxBatch {
		select {
		case r, ok := <-sh.ch:
			if !ok {
				break gather
			}
			batch = append(batch, r)
			n += reqCost(&r)
		default:
			break gather
		}
	}
	sh.batchBuf[sh.bufIdx] = batch[:0]
	return batch
}

// resultsFor returns the zeroed result slice paired with the batch buffer
// gatherQueued last filled.
func (sh *shard) resultsFor(n int) []Result {
	res := sh.resBuf[sh.bufIdx]
	if cap(res) < n {
		res = make([]Result, n)
		sh.resBuf[sh.bufIdx] = res
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
// is durable — directly, or (overlapped protocol) by leaving the published
// batch in flight for a later settle. It reports whether the store crashed
// (the writer must exit).
func (sh *shard) commitBatch(batch []request) (crashed bool) {
	if sh.st.crashing.Load() {
		sh.dropInFlight()
		nackAll(batch, ErrCrashed)
		return true
	}
	results := sh.resultsFor(len(batch))
	var plan *commitPlan
	if sh.absorbOn() {
		// A nil batch is a deadline (or shutdown-drain) wakeup: force the
		// accumulator out.
		force := batch == nil
		if sh.crashedDuring(func() { plan = sh.planCommit(batch, force) }) {
			// Injected crash at a merge boundary: only volatile accumulator
			// state was touched, nothing durable. Requests the partial plan
			// already parked are nacked by run's deferred nackParked; nack
			// the rest of the batch here (each request exactly once).
			sh.st.initiateCrash(sh)
			sh.dropInFlight()
			parked := make(map[*Ticket]bool, sh.acc.pending())
			for i := range sh.acc.parked {
				parked[sh.acc.parked[i].t] = true
			}
			for i := range batch {
				if !parked[batch[i].t] {
					batch[i].t.complete(Result{Err: ErrCrashed})
				}
			}
			return true
		}
		if len(plan.writes) == 0 {
			// Every op this plan acks absorbed into nothing (and parked-only
			// plans ack nobody): no FASE.
			return sh.finishAbsorbed(plan)
		}
		batch, results = plan.acks, plan.results
	}
	// Journal pressure: the batch's redo entries must fit before its FASE
	// opens (forcing a checkpoint, or tripping overflow, if not). Counted
	// in logical ops: a batched put journals one entry per pair.
	jneed := logicalOps(batch)
	if plan != nil {
		jneed = len(plan.writes)
	}
	if sh.ensureJournalRoom(jneed) {
		nackAll(batch, ErrCrashed)
		return true
	}
	pre := sh.th.FlushStats()
	outcome, pc, failed := sh.applyBatch(batch, results, plan)
	switch outcome {
	case batchBeginErr, batchCommitErr:
		nackAll(batch, failed)
		return sh.settle()
	case batchFailed:
		// The abort already awaited any in-flight FASE (atlas orders
		// published commits before a rollback's persists); settle delivers
		// its acks.
		sh.aborts.Add(1)
		nackAll(batch, failed)
		return sh.settle()
	case batchCrashInjected:
		// Injected power failure: if it hit mid-FASE the undo log is still
		// active and Recover rolls the batch back in full; if it hit at the
		// ack boundary the batch is durable but nacked, which the service
		// contract permits (ErrCrashed promises nothing either way). An
		// in-flight predecessor is unawaited — still active, rolled back —
		// and was never acked.
		sh.st.initiateCrash(sh)
		sh.dropInFlight()
		nackAll(batch, ErrCrashed)
		return true
	case batchCrashRace:
		sh.dropInFlight()
		nackAll(batch, ErrCrashed)
		return true
	}
	post := sh.th.FlushStats()
	sh.capSlot.save(sh.st.heap)
	applied, fold := logicalOps(batch), false
	if plan != nil {
		applied, fold = len(plan.writes), plan.fold
	}
	if pc != nil {
		// Overlapped commit: the batch is published and draining. Settle its
		// predecessor (whose drain ran while this batch was applying), then
		// leave this one in flight.
		if sh.settle() {
			nackAll(batch, ErrCrashed)
			return true
		}
		sh.flight = flightBatch{batch: batch, results: results, pc: pc,
			root: sh.db.Snapshot(), gen: sh.db.Generation(), pre: pre, post: post,
			applied: applied, fold: fold}
		sh.inFlight = &sh.flight
		return false
	}
	sh.publish()
	sh.note(batch, applied, pre, post)
	ackAll(batch, results)
	return false
}

func ackAll(batch []request, results []Result) {
	for i := range batch {
		batch[i].t.complete(results[i])
	}
}

// settle completes the in-flight batch: await its epoch's persistence
// (which commits its undo log), fire the ack hook, install its root for
// readers, and deliver the acks. It reports whether a crash — concurrent,
// or injected at the ack site — requires the writer to exit.
func (sh *shard) settle() (crashed bool) {
	fb := sh.inFlight
	if fb == nil {
		return false
	}
	sh.inFlight = nil
	if sh.crashedDuring(fb.pc.Await) {
		// An injected crash at the undo-commit boundary inside the await:
		// the epoch is persisted but the log is still active, so Recover
		// rolls the batch back — never acked, consistent.
		sh.st.initiateCrash(sh)
		nackAll(fb.batch, ErrCrashed)
		return true
	}
	if sh.st.crashing.Load() {
		// The await may have been cut short by the crash's pipeline abort,
		// leaving the batch's log active (Recover rolls it back). Either
		// way its requesters were never acked, so ErrCrashed is honest.
		nackAll(fb.batch, ErrCrashed)
		return true
	}
	if hook := sh.st.opts.AckHook; hook != nil {
		// The last crash boundary: the commit is durable but no requester
		// has been told. A crash here must lose no data, only acks.
		if sh.crashedDuring(func() { hook(sh.id) }) {
			sh.st.initiateCrash(sh)
			nackAll(fb.batch, ErrCrashed)
			return true
		}
	}
	if fb.fold {
		// Same boundary, for the parked counter acks this commit carries.
		if sh.crashedDuring(func() { sh.absorbHook(AbsorbAck) }) {
			sh.st.initiateCrash(sh)
			nackAll(fb.batch, ErrCrashed)
			return true
		}
	}
	sh.publishView(fb.root, fb.gen)
	sh.note(fb.batch, fb.applied, fb.pre, fb.post)
	ackAll(fb.batch, fb.results)
	return false
}

// crashedDuring runs fn, converting a panic claimed by
// Options.IsInjectedCrash into a reported crash — the out-of-FASE mirror
// of applyBatch's recover. settle crosses injection sites too: the
// undo-commit boundary inside the await and the ack boundary after it.
func (sh *shard) crashedDuring(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			claim := sh.st.opts.IsInjectedCrash
			if claim == nil || !claim(r) {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

// dropInFlight nacks the in-flight batch without settling it: the crash
// path. Its FASE was published but never awaited, so its undo log is still
// active and Recover rolls the batch back — consistent with the nack.
func (sh *shard) dropInFlight() {
	if fb := sh.inFlight; fb != nil {
		sh.inFlight = nil
		nackAll(fb.batch, ErrCrashed)
	}
}

// applyBatch runs the whole FASE — Begin, the batch's mutations, the crash
// hooks, and the commit: a durable synchronous commit normally, or a
// publish (mdb.CommitPublish, pc non-nil) under the overlapped protocol,
// in which case the ack hook and the acks are deferred to settle. A panic
// claimed by Options.IsInjectedCrash — a fault-injection site firing
// inside a store, flush, or undo-log write — abandons the FASE with its
// undo log still active, exactly as a power failure at that instruction
// would; panics it does not claim propagate.
func (sh *shard) applyBatch(batch []request, results []Result, plan *commitPlan) (outcome batchOutcome, pc *mdb.PendingCommit, err error) {
	defer func() {
		if r := recover(); r != nil {
			claim := sh.st.opts.IsInjectedCrash
			if claim == nil || !claim(r) {
				panic(r)
			}
			outcome, pc, err = batchCrashInjected, nil, ErrCrashed
		}
	}()
	if plan != nil && plan.hasTrig {
		// Threshold/deadline accumulator commits announce themselves before
		// the FASE begins; a crash here loses only parked (unacked) ops.
		sh.absorbHook(plan.trigger)
	}
	if err := sh.db.Begin(); err != nil {
		return batchBeginErr, nil, err
	}
	var failed error
	if plan != nil {
		// Absorbed commit: results were precomputed by the serial planner;
		// the FASE applies only the net write per touched key. Each physical
		// write is mirrored into the redo journal (deletes of absent keys
		// included — their replay is a no-op).
		for _, w := range plan.writes {
			if w.del {
				_, failed = sh.db.Delete(w.k)
				if failed == nil {
					sh.journalAppend(jOpDel, w.k, 0)
				}
			} else {
				failed = sh.db.Put(w.k, w.v)
				if failed == nil {
					sh.journalAppend(jOpPut, w.k, w.v)
				}
			}
			if failed != nil {
				break
			}
		}
	} else {
		for i := range batch {
			r := &batch[i]
			switch r.op {
			case OpPut:
				failed = sh.db.Put(r.k, r.v)
				if failed == nil {
					sh.journalAppend(jOpPut, r.k, r.v)
				}
			case OpDel:
				results[i].Found, failed = sh.db.Delete(r.k)
				if failed == nil {
					sh.journalAppend(jOpDel, r.k, 0)
				}
			case opPuts:
				for _, p := range r.pairs {
					if failed = sh.db.Put(p.K, p.V); failed != nil {
						break
					}
					sh.journalAppend(jOpPut, p.K, p.V)
				}
			case OpIncr, OpDecr:
				// Absorption off: an ordinary read-modify-write inside the
				// batch's FASE (Get sees the in-transaction tree, so earlier
				// batch ops are visible). Journaled as the computed put, so
				// replay needs no read-back.
				d := r.v
				if r.op == OpDecr {
					d = -d
				}
				cur, _ := sh.db.Get(r.k)
				results[i].Val = cur + d
				failed = sh.db.Put(r.k, cur+d)
				if failed == nil {
					sh.journalAppend(jOpPut, r.k, cur+d)
				}
			}
			if failed != nil {
				break
			}
		}
	}
	if failed != nil {
		// Shed the whole batch: roll the transaction back so the committed
		// tree is untouched, and surface the cause (typically
		// mdb.ErrPoolExhausted) to every requester.
		sh.journalAbort()
		if aerr := sh.db.Abort(); aerr != nil {
			failed = fmt.Errorf("%w (abort: %v)", failed, aerr)
		}
		return batchFailed, nil, failed
	}
	// Seal the staged journal entries inside the FASE: the tail/gen words
	// are undo-logged stores, so any crash short of the commit rolls the
	// journal and the tree back together.
	sh.journalSeal()
	if hook := sh.st.opts.CrashBeforeCommit; hook != nil &&
		hook(sh.id, int(sh.batches.Load()), len(batch)) {
		return batchCrashInjected, nil, ErrCrashed
	}
	if sh.st.crashing.Load() {
		// A concurrent crash caught us mid-FASE: abandon without
		// committing, exactly as the power failure would.
		return batchCrashRace, nil, ErrCrashed
	}
	if sh.st.opts.Pipeline.Enabled {
		pc, cerr := sh.db.CommitPublish()
		if cerr != nil {
			return batchCommitErr, nil, cerr
		}
		return batchCommitted, pc, nil
	}
	if err := sh.db.Commit(); err != nil {
		return batchCommitErr, nil, err
	}
	if hook := sh.st.opts.AckHook; hook != nil {
		// The last crash boundary: the commit is durable but no requester
		// has been told. A crash here must lose no data, only acks.
		hook(sh.id)
	}
	if plan != nil && plan.fold {
		// Same boundary, for the parked counter acks this commit carries.
		sh.absorbHook(AbsorbAck)
	}
	return batchCommitted, nil, nil
}
