// Package kv is a sharded, group-committing, durable key-value service
// layered on the paper's persistence stack: each shard owns one mdb COW
// B+-tree on its own atlas.Thread, driven by a dedicated writer goroutine
// that drains a queue of Put/Delete requests into a single
// Begin/…/Commit failure-atomic section. Group commit is the paper's
// write-combining idea lifted one level: where the software cache combines
// flushes of the same line *within* a FASE, the batch writer combines
// whole operations *into* one FASE, so the root-to-leaf page copies of a
// B+-tree update are paid once per batch instead of once per operation and
// the FASE-end drain is amortized over the batch. Batches form naturally:
// the writer commits whatever is queued the moment it is free, so requests
// arriving during a commit share the next one and a lone request waits for
// nothing. Requesters are acked only after the commit's flush completes, so
// an acked write survives any crash (see Crash and Recover).
//
// Every mutation is a Submit (enqueue, returns at once) and a Wait on a
// caller-owned, reusable Ticket; Put, Delete, Incr, Decr and PutBatch are
// that pair back to back. A caller that keeps many tickets in flight — a
// connection's pipelined window — gets them committed together.
//
// Reads never enter the writer queue: they are snapshot reads against the
// last committed root, published atomically by the writer. Superseded
// pages are reclaimed only once no snapshot that can still see them is
// live (deferred reclamation via mdb.SetFreeHook), so readers never block
// writers and writers never invalidate readers.
package kv

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"nvmcache/internal/adaptive"
	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/mdb"
	"nvmcache/internal/pmem"
)

// Errors returned by the request paths.
var (
	// ErrClosed reports a request against a store after Close.
	ErrClosed = errors.New("kv: store closed")
	// ErrCrashed reports a request lost to a (simulated) power failure; the
	// operation was not acked and may or may not be durable — after
	// Recover, requests aborted mid-batch are guaranteed rolled back.
	ErrCrashed = errors.New("kv: store crashed")
)

// Options configures a Store. Use DefaultOptions as the base; zero numeric
// fields are replaced by defaults, but Policy/Config are taken as-is.
type Options struct {
	// Shards is the number of independent engines (trees, writer
	// goroutines). Keys are routed by ShardIndex.
	Shards int
	// MaxBatch bounds how many operations one commit may absorb: the writer
	// stops gathering once the batch holds this many (a multi-pair request
	// taken last may carry it past the bound); 1 disables group commit
	// (every operation is its own FASE). It bounds commit latency and the
	// pages one FASE copies, not the undo log: see LogEntries.
	MaxBatch int
	// QueueDepth is the per-shard request channel capacity.
	QueueDepth int
	// PoolPages is the per-shard B+-tree page pool capacity.
	PoolPages int
	// LogEntries is the per-shard undo-log capacity in entries. It must
	// cover the distinct words one FASE undo-logs, or aborts and crash
	// rollbacks become incomplete; that is faseLoggedWords whatever the
	// batch size, because the pages a batch writes are private to its FASE
	// and unlogged.
	LogEntries int
	// Policy and Config select the per-thread persistence technique
	// (default: the paper's software cache at its 50-line cap).
	Policy core.PolicyKind
	Config core.Config
	// Pipeline, when Enabled, gives every shard thread an asynchronous
	// batched flush pipeline (core.FlushPipeline) and switches the writer
	// to the overlapped commit protocol: batch N's FASE is published
	// (mdb.CommitPublish) and batch N+1's stores and undo logging run
	// while batch N drains in the background; acks still wait for
	// durability (settle), only the wait moves off the apply path.
	Pipeline core.PipelineConfig
	// Adaptive, when Enabled, runs the online control plane
	// (internal/adaptive): per-shard samplers tap the store stream, and a
	// periodic controller retargets each shard's write-cache capacity from
	// its live miss-ratio curve and retunes the group-commit bounds and
	// flush-pipeline depth from observed counters. Policy is forced to
	// SoftCacheOffline so the external controller solely owns cache sizing
	// (the policy's own one-shot sampler stays out of the loop).
	Adaptive adaptive.Config
	// Absorb configures the logical write-absorption layer (absorb.go):
	// same-key coalescing inside each batch's FASE plus the volatile
	// counter accumulator behind Incr/Decr. Disabled by default.
	Absorb AbsorbConfig
	// AbsorbHook observes each absorption boundary crossing (merge,
	// threshold commit, deadline commit, absorb ack) on the shard writer;
	// internal/faultinject numbers them as crash-exploration sites.
	AbsorbHook func(op AbsorbOp)
	// Checkpoint configures per-shard checkpoint images, the redo journal
	// behind them, and parallel bounded-time recovery (checkpoint.go).
	// Disabled by default. A heap that already holds checkpoint structures
	// keeps them maintained across Recover regardless of this field.
	Checkpoint CheckpointConfig
	// CheckpointHook observes each checkpoint durability boundary
	// (begin, per-page persist, seal, truncate) on the shard writer;
	// internal/faultinject numbers them as crash-exploration sites.
	CheckpointHook func(op CkptOp)
	// RecoverHook observes recovery-side boundaries: atlas undo-log
	// rollback stages and each rebuild/replay batch during checkpointed
	// recovery. A panic claimed by IsInjectedCrash aborts the recovery
	// mid-flight (Recover returns ErrCrashed with the heap quiesced), and a
	// second Recover on the same heap must converge — the crash-exploration
	// contract for recovery itself.
	RecoverHook func(op atlas.RecoverOp)
	// CrashBeforeCommit is a failure-injection hook: when it returns true
	// the writer simulates a power failure in the middle of its FASE —
	// after the batch's stores, before the commit — so the whole store
	// crashes with that batch unacked and recoverable only by rollback.
	// batch is the shard's committed-batch count so far.
	CrashBeforeCommit func(shard, batch, size int) bool

	// WrapSink and UndoHook are forwarded to the underlying atlas runtime
	// (atlas.Options), interposing on each shard thread's flush sink and
	// undo log. internal/faultinject uses them to number every persistence
	// boundary of the group-commit path as a crash-exploration site. Shard
	// i's thread id is i.
	WrapSink func(thread int32, sink core.FlushSink) core.FlushSink
	UndoHook func(op atlas.UndoOp)
	// AckHook runs on the shard writer between a batch's durable commit
	// and the delivery of its acks — the last boundary at which a crash
	// leaves committed-but-unacked writes.
	AckHook func(shard int)
	// IsInjectedCrash classifies a panic raised by one of the hooks above
	// as a simulated power failure: the shard writer then abandons its
	// FASE and crashes the store exactly as CrashBeforeCommit does. Panics
	// it does not claim propagate unchanged.
	IsInjectedCrash func(r any) bool
}

// faseLoggedWords is the most distinct words any shard FASE undo-logs,
// whatever its batch holds: the tree's root and generation (mdb; the pages
// are private stores) and the redo journal's tail and generation
// (checkpoint.go). Absorption adds none: a net delta is an ordinary put.
const faseLoggedWords = 4

// DefaultOptions returns the serving configuration used by cmd/nvserver.
//
// Its policy is the paper's software cache fixed at the knee's upper bound
// (Config.Knee.MaxSize, 50 lines), not the online selector. Every flush in
// a FASE is an LRU miss, and a larger LRU never misses more, so capacity
// trades only against the FASE-end drain, which the paper bounds at 50.
// Sampling would pick a smaller cache, flush more lines per durable PUT,
// and hold a burst buffer per shard to do it (DESIGN §4k).
func DefaultOptions() Options {
	cfg := core.DefaultConfig()
	cfg.PresetSize = cfg.Knee.MaxSize
	return Options{
		Shards:     4,
		MaxBatch:   64,
		QueueDepth: 256,
		PoolPages:  1 << 13,
		// Sixteen times the bound: an overflowing log fails silently until a
		// rollback needs it, and the headroom costs 1 KiB per log.
		LogEntries: 16 * faseLoggedWords,
		Policy:     core.SoftCacheOffline,
		Config:     cfg,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Shards <= 0 {
		o.Shards = d.Shards
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = d.MaxBatch
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = d.QueueDepth
	}
	if o.PoolPages <= 0 {
		o.PoolPages = d.PoolPages
	}
	if o.LogEntries <= 0 {
		o.LogEntries = d.LogEntries
	}
	if o.Adaptive.Enabled {
		o.Adaptive = o.Adaptive.WithDefaults()
		o.Policy = core.SoftCacheOffline
	}
	o.Absorb = o.Absorb.withDefaults()
	o.Checkpoint = o.Checkpoint.withDefaults(o.PoolPages, o.MaxBatch)
	return o
}

// RecommendedHeapBytes estimates the persistent heap a store with these
// options needs. Recovery allocates nothing: it frees the crashed
// incarnation's undo logs for the recovered threads to claim, and the page
// allocator is rebuilt from the tree.
func RecommendedHeapBytes(o Options) uint64 {
	o = o.withDefaults()
	logs := uint64(1)
	if o.Pipeline.Enabled {
		logs = 2 // the spare overlap log each pipelined thread allocates
	}
	perShard := uint64(192)*uint64(o.PoolPages) + // page pool arena
		logs*16*uint64(o.LogEntries) + // undo log entries
		8*64 // meta page, arena header, log headers, slack
	total := uint64(o.Shards) * perShard
	total += dirBytes(o.Shards) + 64 + 1<<14 // directory + registry + slack
	if c := o.Checkpoint; c.Enabled {
		perShard := pmem.CheckpointRegionSize(16*uint64(c.MaxPairs)) +
			jrnHdr + jrnEntrySize*uint64(c.JournalOps) + 128
		total += uint64(o.Shards)*perShard + ckdHdr + ckdStride*uint64(o.Shards)
	}
	return total + total/4
}

// ShardIndex routes a key to a shard: a fixed avalanche hash (splitmix64
// finalizer) reduced mod shards, so routing is deterministic across
// processes and restarts.
func ShardIndex(key uint64, shards int) int {
	x := key
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

const (
	stateServing = iota
	stateClosed
	stateCrashed
)

// Store is the sharded service handle. All methods are safe for concurrent
// use.
type Store struct {
	heap   *pmem.Heap
	rt     *atlas.Runtime
	opts   Options
	shards []*shard

	// Adaptive control plane (nil unless Options.Adaptive.Enabled).
	taps []*adaptive.Tap
	ctrl *adaptive.Controller

	crashing  atomic.Bool
	crashCh   chan struct{} // closed when a crash begins
	crashDone chan struct{} // closed when the crash has fully taken effect

	mu    sync.RWMutex
	state int
}

func runtimeOptions(o Options, taps []*adaptive.Tap) atlas.Options {
	// Trace recording is always off: a serving store runs indefinitely and
	// per-store trace buffers grow without bound.
	ro := atlas.Options{Policy: o.Policy, Config: o.Config, LogEntries: o.LogEntries, DisableTrace: true,
		WrapSink: o.WrapSink, UndoHook: o.UndoHook, Pipeline: o.Pipeline}
	if taps != nil {
		ro.StoreTap = func(thread int32) core.StoreTap {
			if int(thread) < len(taps) {
				return taps[thread]
			}
			return nil // a thread beyond the shard set stays untapped
		}
	}
	return ro
}

// Open creates a new store in an empty heap: a shard directory (shard
// count, each shard's mdb meta address, and each shard's advisory
// cache-capacity word — see capacity.go) becomes the heap root, so Recover
// can reattach after a restart.
func Open(heap *pmem.Heap, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if heap.Root() != 0 {
		return nil, errors.New("kv: heap already holds a store; use Recover")
	}
	taps := initAdaptive(opts)
	rt := atlas.NewRuntime(heap, runtimeOptions(opts, taps))
	dir, err := heap.AllocLines(dirBytes(opts.Shards))
	if err != nil {
		return nil, fmt.Errorf("kv: allocating shard directory: %w", err)
	}
	heap.WriteUint64(dir, uint64(opts.Shards))
	s := &Store{heap: heap, rt: rt, opts: opts, taps: taps,
		crashCh: make(chan struct{}), crashDone: make(chan struct{})}
	for i := 0; i < opts.Shards; i++ {
		th, err := rt.NewThread()
		if err != nil {
			return nil, fmt.Errorf("kv: shard %d: %w", i, err)
		}
		db, err := mdb.Create(th, opts.PoolPages)
		if err != nil {
			return nil, fmt.Errorf("kv: shard %d: %w", i, err)
		}
		heap.WriteUint64(dir+8+8*uint64(i), db.MetaAddr())
		s.shards = append(s.shards, newShard(s, i, th, db, openCapSlot(heap, dir, opts, i, th.Policy(), false)))
	}
	heap.Persist(dir, dirBytes(opts.Shards))
	heap.SetRoot(dir)
	if opts.Checkpoint.Enabled {
		// Fresh store: the journal covers the whole (empty) history, so the
		// journal-only recovery mode stays available until a first image
		// lands (broken=false).
		cks, err := setupCheckpoints(heap, opts.Checkpoint, opts.Shards, false)
		if err != nil {
			return nil, err
		}
		for i, sh := range s.shards {
			sh.ckpt = cks[i]
		}
	}
	s.start()
	return s, nil
}

// crashGuard runs fn, converting a panic claimed by the injected-crash
// classifier into crashed=true (recovery-side mirror of shard.crashedDuring).
func crashGuard(claim func(any) bool, fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if claim == nil || !claim(r) {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

// Recover reattaches to a heap that held a store, rolling back any FASE
// that was in flight at the crash (every unacked batch), and resumes
// serving. The shard count is read back from the directory; opts.Shards is
// ignored.
//
// On a heap with checkpoint structures (see Options.Checkpoint) each
// shard's tree is then rebuilt from its newest valid checkpoint image plus
// the redo-journal suffix behind it — work bounded by the checkpoint
// interval, not the store's history — with shards recovered in parallel by
// a pool of Checkpoint.RecoverWorkers goroutines. A legacy heap (no
// structures) takes exactly the rollback-only path and is not written to
// beyond it; setting Checkpoint.Enabled on such a heap retrofits the
// structures during this recovery.
//
// Recovery itself is crash-safe: an injected crash at any RecoverHook or
// CheckpointHook boundary quiesces the heap and returns ErrCrashed, and a
// fresh Recover on the same heap converges — rebuilds restart from scratch
// and never consume the images or journal entries they read.
func Recover(heap *pmem.Heap, opts Options) (*Store, atlas.RecoveryReport, error) {
	opts = opts.withDefaults()
	claim := opts.IsInjectedCrash
	var rep atlas.RecoveryReport
	var aerr error
	if crashGuard(claim, func() {
		rep, aerr = atlas.RecoverWith(heap, atlas.RecoverOptions{Hook: opts.RecoverHook})
	}) {
		heap.Crash()
		return nil, rep, ErrCrashed
	}
	if aerr != nil {
		return nil, rep, fmt.Errorf("kv: %w", aerr)
	}
	dir := heap.Root()
	if dir == 0 {
		return nil, rep, errors.New("kv: heap holds no store; use Open")
	}
	n := heap.ReadUint64(dir)
	if n == 0 || n > 1<<16 {
		return nil, rep, fmt.Errorf("kv: corrupt shard directory (%d shards)", n)
	}
	opts.Shards = int(n)

	// Checkpoint structures: a heap that has them keeps them maintained
	// (the persistent geometry wins over opts); a legacy heap gains them
	// only when the caller asks.
	var cks []*shardCkpt
	retrofit := false
	if aux := heap.Aux(); aux != 0 {
		var err error
		cks, opts.Checkpoint, err = openCheckpoints(heap, aux, opts.Checkpoint, opts.Shards)
		if err != nil {
			return nil, rep, err
		}
	} else if opts.Checkpoint.Enabled {
		retrofit = true
	}

	taps := initAdaptive(opts)
	rt := atlas.NewRuntime(heap, runtimeOptions(opts, taps))
	s := &Store{heap: heap, rt: rt, opts: opts, taps: taps,
		crashCh: make(chan struct{}), crashDone: make(chan struct{})}
	ths := make([]*atlas.Thread, opts.Shards)
	dbs := make([]*mdb.DB, opts.Shards)
	caps := make([]capSlot, opts.Shards)
	for i := 0; i < opts.Shards; i++ {
		th, err := rt.NewThread()
		if err != nil {
			return nil, rep, fmt.Errorf("kv: shard %d: %w", i, err)
		}
		caps[i] = openCapSlot(heap, dir, opts, i, th.Policy(), true)
		db, err := mdb.Attach(th, heap.ReadUint64(dir+8+8*uint64(i)))
		if err != nil {
			return nil, rep, fmt.Errorf("kv: shard %d: %w", i, err)
		}
		ths[i], dbs[i] = th, db
	}

	recs := make([]shardRecovery, opts.Shards)
	if cks != nil {
		// Parallel checkpointed recovery: each worker owns its shard's
		// thread and tree outright, so the only shared state is the atlas
		// runtime's internals, which are built for concurrent threads.
		workers := opts.Checkpoint.RecoverWorkers
		if workers > opts.Shards {
			workers = opts.Shards
		}
		sem := make(chan struct{}, workers)
		errs := make([]error, opts.Shards)
		crashes := make([]bool, opts.Shards)
		panics := make([]any, opts.Shards)
		var wg sync.WaitGroup
		for i := range dbs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				defer func() {
					if r := recover(); r != nil {
						if claim != nil && claim(r) {
							crashes[i] = true
							return
						}
						panics[i] = r
					}
				}()
				recs[i], errs[i] = recoverShardCkpt(dbs[i], cks[i], opts.RecoverHook, opts.CheckpointHook)
			}(i)
		}
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
		for _, c := range crashes {
			if c {
				// An injected crash cut a rebuild mid-flight. Quiesce exactly
				// as a power failure would: abort any pipeline residue and
				// drop the volatile view. The next Recover starts over.
				rt.CrashAbort()
				heap.Crash()
				return nil, rep, ErrCrashed
			}
		}
		for i, err := range errs {
			if err != nil {
				return nil, rep, fmt.Errorf("kv: shard %d: recovery: %w", i, err)
			}
		}
	} else if retrofit {
		// Legacy heap, checkpointing requested: create the structures with
		// broken journals (their range can never cover the pre-existing
		// tree) and seed each region with a full-state image so the next
		// recovery is already bounded.
		var err error
		cks, err = setupCheckpoints(heap, opts.Checkpoint, opts.Shards, true)
		if err != nil {
			return nil, rep, err
		}
		for i := range dbs {
			var perr error
			if crashGuard(claim, func() {
				var published bool
				published, _, _, perr = publishImage(dbs[i], cks[i], opts.CheckpointHook)
				if published {
					truncateAfterPublish(cks[i], opts.CheckpointHook)
				}
			}) {
				rt.CrashAbort()
				heap.Crash()
				return nil, rep, ErrCrashed
			}
			if perr != nil {
				return nil, rep, fmt.Errorf("kv: shard %d: retrofit checkpoint: %w", i, perr)
			}
			recs[i] = shardRecovery{mode: RecoveryModeLegacy}
		}
	}

	for i := 0; i < opts.Shards; i++ {
		sh := newShard(s, i, ths[i], dbs[i], caps[i])
		if cks != nil {
			sh.ckpt = cks[i]
		}
		sh.recMode.Store(recs[i].mode)
		sh.recFallbacks.Store(recs[i].fallbacks)
		sh.recReplayed.Store(recs[i].replayed)
		sh.recRestored.Store(recs[i].restored)
		s.shards = append(s.shards, sh)
	}
	s.start()
	return s, rep, nil
}

func (s *Store) start() {
	for _, sh := range s.shards {
		go sh.run()
	}
	s.startAdaptive()
}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// ShardFor returns the shard index serving key k.
func (s *Store) ShardFor(k uint64) int { return ShardIndex(k, len(s.shards)) }

// Heap returns the underlying persistent heap.
func (s *Store) Heap() *pmem.Heap { return s.heap }

// enqueue hands a request to its shard's writer. The read lock is held
// across the send so state transitions (Close, the crash taking effect)
// cannot race the channel.
func (s *Store) enqueue(sh *shard, r request) error {
	s.mu.RLock()
	if s.state != stateServing {
		st := s.state
		s.mu.RUnlock()
		if st == stateCrashed {
			return ErrCrashed
		}
		return ErrClosed
	}
	select {
	case sh.ch <- r:
		s.mu.RUnlock()
		return nil
	case <-s.crashCh:
		s.mu.RUnlock()
		return ErrCrashed
	}
}

// Submit enqueues one single-key mutation on its shard's writer queue and
// returns without waiting for the commit; the outcome arrives through
// t.Wait. For OpPut v is the value, for OpIncr/OpDecr the delta, for OpDel
// it is ignored. Submit blocks only while the shard's queue is full, and
// never fails on its own: a store that is closed or has crashed completes
// the ticket with ErrClosed or ErrCrashed. Mutations submitted to one shard
// by one goroutine commit in submission order.
func (s *Store) Submit(t *Ticket, op Op, k, v uint64) {
	t.arm(1)
	sh := s.shards[ShardIndex(k, len(s.shards))]
	if err := s.enqueue(sh, request{op: op, k: k, v: v, t: t}); err != nil {
		t.complete(Result{Err: err})
	}
}

// SubmitBatch is Submit for a batch of puts (the wire protocol's MPUT): the
// pairs are grouped by shard — copied into the ticket, so the caller may
// reuse pairs at once — and enqueued as one request per shard touched, so
// the whole batch costs one enqueue and one ack per shard instead of one
// per pair. Pairs routed to the same shard apply in slice order (a later
// duplicate key wins); ordering across shards is unspecified, as for
// concurrent Puts. Wait returns once every shard's part has committed and
// flushed, with the first error if any part failed: a prefix of the shard
// groups may then have committed — individual pairs are still atomic, the
// batch as a whole is not.
func (s *Store) SubmitBatch(t *Ticket, pairs []Pair) {
	switch len(pairs) {
	case 0:
		t.arm(1)
		t.complete(Result{})
		return
	case 1:
		s.Submit(t, OpPut, pairs[0].K, pairs[0].V)
		return
	}
	ns := len(s.shards)
	var countsArr, offsArr [getBatchShards]int
	counts, offs := countsArr[:], offsArr[:]
	if ns > getBatchShards {
		counts, offs = make([]int, ns), make([]int, ns)
	}
	// Counting-sort the pairs into one shard-grouped backing slice; each
	// shard's request aliases its contiguous run.
	for i := range pairs {
		counts[ShardIndex(pairs[i].K, ns)]++
	}
	sum, touched := 0, 0
	for i := 0; i < ns; i++ {
		offs[i] = sum
		sum += counts[i]
		if counts[i] > 0 {
			touched++
		}
	}
	if cap(t.grouped) < len(pairs) {
		t.grouped = make([]Pair, len(pairs))
	}
	grouped := t.grouped[:len(pairs)]
	for i := range pairs {
		si := ShardIndex(pairs[i].K, ns)
		grouped[offs[si]] = pairs[i]
		offs[si]++
	}
	t.arm(touched)
	for i := 0; i < ns; i++ {
		if counts[i] == 0 {
			continue
		}
		// offs[i] has advanced to the end of shard i's run.
		r := request{op: opPuts, pairs: grouped[offs[i]-counts[i] : offs[i]], t: t}
		if err := s.enqueue(s.shards[i], r); err != nil {
			t.complete(Result{Err: err})
		}
	}
}

// tickets recycles the tickets behind the blocking calls below.
var tickets = sync.Pool{New: func() any { return new(Ticket) }}

// await is Wait for a pooled ticket, which goes back to the pool.
func await(t *Ticket) Result {
	res := t.Wait()
	tickets.Put(t)
	return res
}

func (s *Store) do(op Op, k, v uint64) Result {
	t := tickets.Get().(*Ticket)
	s.Submit(t, op, k, v)
	return await(t)
}

// Put durably stores k→v. It returns nil only after the batch containing
// the write has committed and its flushes completed — an acked Put
// survives any crash.
func (s *Store) Put(k, v uint64) error { return s.do(OpPut, k, v).Err }

// Delete durably removes k, reporting whether it was present. The same
// ack-after-flush guarantee as Put applies.
func (s *Store) Delete(k uint64) (bool, error) {
	res := s.do(OpDel, k, 0)
	return res.Found, res.Err
}

// Incr durably adds d to k (wrapping uint64 arithmetic; a missing key
// counts from zero) and returns the post-increment value computed at the
// operation's serialization point. With absorption enabled the ack — and
// so the return — may be deferred until the shard's accumulator commits
// the key's net delta (threshold or deadline); the durability contract is
// unchanged: a returned Incr survives any crash.
func (s *Store) Incr(k, d uint64) (uint64, error) {
	res := s.do(OpIncr, k, d)
	return res.Val, res.Err
}

// Decr durably subtracts d from k (wrapping; a missing key counts from
// zero) and returns the post-decrement value, with Incr's ack semantics.
func (s *Store) Decr(k, d uint64) (uint64, error) {
	res := s.do(OpDecr, k, d)
	return res.Val, res.Err
}

// PutBatch durably stores every pair: SubmitBatch and Wait. It returns nil
// only after every pair's batch has committed and flushed — an acked
// PutBatch survives any crash in full.
func (s *Store) PutBatch(pairs []Pair) error {
	t := tickets.Get().(*Ticket)
	s.SubmitBatch(t, pairs)
	return await(t).Err
}

// getBatchShards bounds the stack-allocated per-shard bookkeeping in
// GetBatch and SubmitBatch; stores with more shards fall back to heap
// slices.
const getBatchShards = 64

// GetBatch reads keys[i] into vals[i] and found[i] (both must be at
// least len(keys) long) from each shard's last committed snapshot — the
// wire protocol's MGET. The store lock is taken once and each shard's
// snapshot is pinned at most once, so the view is per-shard consistent
// exactly like a sequence of Gets, at a fraction of the synchronization.
// Allocation-free for stores with up to getBatchShards shards.
func (s *Store) GetBatch(keys, vals []uint64, found []bool) error {
	if len(keys) == 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.state == stateCrashed {
		return ErrCrashed
	}
	ns := len(s.shards)
	var rootsArr, gensArr [getBatchShards]uint64
	var pinnedArr [getBatchShards]bool
	roots, gens, pinned := rootsArr[:], gensArr[:], pinnedArr[:]
	if ns > getBatchShards {
		roots = make([]uint64, ns)
		gens = make([]uint64, ns)
		pinned = make([]bool, ns)
	}
	for i, k := range keys {
		si := ShardIndex(k, ns)
		sh := s.shards[si]
		if !pinned[si] {
			roots[si], gens[si] = sh.acquire()
			pinned[si] = true
		}
		vals[i], found[i] = sh.db.GetSnapshot(roots[si], k)
		sh.gets.Add(1)
	}
	for si := 0; si < ns; si++ {
		if pinned[si] {
			s.shards[si].release(gens[si])
		}
	}
	return nil
}

// Get reads k from the shard's last committed snapshot, without entering
// the writer queue: concurrent commits never block a reader and a reader
// never blocks the writer. Reads keep working after Close (the heap stays
// attached) but not after a crash.
func (s *Store) Get(k uint64) (uint64, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.state == stateCrashed {
		return 0, false, ErrCrashed
	}
	sh := s.shards[ShardIndex(k, len(s.shards))]
	root, gen := sh.acquire()
	v, ok := sh.db.GetSnapshot(root, k)
	sh.release(gen)
	sh.gets.Add(1)
	return v, ok, nil
}

// Pair is one key/value returned by Scan.
type Pair struct{ K, V uint64 }

// Scan returns up to n pairs with keys ≥ start in ascending key order.
// Keys are hash-routed across shards, so each shard's B+-tree holds an
// arbitrary key subset: Scan walks every shard's last committed snapshot
// from start (up to n pairs each) and merges, giving a globally ordered
// range read. The per-shard snapshots are lock-free but acquired one
// after another, so the merged view is per-shard — not cross-shard —
// consistent. Like Get it never enters the writer queue.
func (s *Store) Scan(start uint64, n int) ([]Pair, error) {
	if n <= 0 {
		return nil, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.state == stateCrashed {
		return nil, ErrCrashed
	}
	all := make([]Pair, 0, n)
	for _, sh := range s.shards {
		root, gen := sh.acquire()
		taken := 0
		for c := sh.db.Seek(root, start); c.Valid() && taken < n; c.Next() {
			all = append(all, Pair{c.Key(), c.Value()})
			taken++
		}
		sh.release(gen)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].K < all[j].K })
	if len(all) > n {
		all = all[:n]
	}
	s.shards[ShardIndex(start, len(s.shards))].scans.Add(1)
	return all, nil
}

// Snapshot pins shard's current committed root: Get against the snapshot
// sees that exact tree regardless of concurrent commits, because the pages
// it references are not recycled until Release. Snapshots must be released
// before Crash; reads concurrent with a power failure are undefined.
func (s *Store) Snapshot(shard int) (*Snapshot, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("kv: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.state == stateCrashed {
		return nil, ErrCrashed
	}
	sh := s.shards[shard]
	root, gen := sh.acquire()
	return &Snapshot{sh: sh, root: root, gen: gen}, nil
}

// Snapshot is a pinned read-only view of one shard.
type Snapshot struct {
	sh       *shard
	root     uint64
	gen      uint64
	released bool
}

// Get looks k up in the pinned view.
func (sn *Snapshot) Get(k uint64) (uint64, bool) { return sn.sh.db.GetSnapshot(sn.root, k) }

// Gen returns the committed generation the snapshot pins.
func (sn *Snapshot) Gen() uint64 { return sn.gen }

// Root exposes the pinned root (for mdb.GetSnapshot-level assertions).
func (sn *Snapshot) Root() uint64 { return sn.root }

// Release unpins the view, allowing its superseded pages to be recycled.
func (sn *Snapshot) Release() {
	if sn.released {
		return
	}
	sn.released = true
	sn.sh.release(sn.gen)
}

// Close drains every shard gracefully: pending requests are accepted no
// more, queued ones are batched, committed and acked, writer goroutines
// exit, and the runtime's residual dirty state is persisted. Reads remain
// possible afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.state != stateServing {
		st := s.state
		s.mu.Unlock()
		if st == stateCrashed {
			return ErrCrashed
		}
		return nil
	}
	s.state = stateClosed
	s.mu.Unlock()
	for _, sh := range s.shards {
		close(sh.ch)
	}
	for _, sh := range s.shards {
		<-sh.done
	}
	s.stopAdaptive()
	if s.crashing.Load() {
		return ErrCrashed
	}
	s.rt.Close()
	return nil
}

// Crash simulates a power failure: in-flight batches are abandoned
// mid-FASE (never acked, rolled back by Recover), writer goroutines stop,
// the heap's volatile view is discarded, and every queued request fails
// with ErrCrashed. The Store is unusable afterwards; build a new one with
// Recover on the same heap.
func (s *Store) Crash() error { return s.initiateCrash(nil) }

// Crashed is closed once a crash (external or injected) has fully taken
// effect — after it, the heap is safe to Recover.
func (s *Store) Crashed() <-chan struct{} { return s.crashDone }

// initiateCrash coordinates the failure: writers park first (so no
// goroutine mutates the heap mid-discard), then the volatile view is
// dropped. except is the writer-shard initiating the crash from inside its
// own FASE (via CrashBeforeCommit), which parks itself after returning.
func (s *Store) initiateCrash(except *shard) error {
	if !s.crashing.CompareAndSwap(false, true) {
		return ErrCrashed
	}
	close(s.crashCh)
	// Tear down the flush pipelines first: a writer parked on backpressure
	// or an epoch await (settle) is released by the abort and exits through
	// its crash path, and no pipeline worker touches the heap after this
	// returns — the volatile view below is dropped on a quiescent heap.
	s.rt.CrashAbort()
	for _, sh := range s.shards {
		if sh != except {
			<-sh.done
		}
	}
	// The controller's targets are published atomically and applied only at
	// writer safe points, so it cannot corrupt the quiescing heap; stop it
	// anyway so no decision loop outlives the store.
	s.stopAdaptive()
	s.mu.Lock()
	s.state = stateCrashed
	s.heap.Crash()
	s.mu.Unlock()
	for _, sh := range s.shards {
		for {
			select {
			case r := <-sh.ch:
				r.t.complete(Result{Err: ErrCrashed})
				continue
			default:
			}
			break
		}
	}
	close(s.crashDone)
	return nil
}

// CheckInvariants validates every shard's tree structure. Call it on a
// quiesced store (freshly recovered, or after Close).
func (s *Store) CheckInvariants() error {
	for _, sh := range s.shards {
		if err := sh.db.CheckInvariants(); err != nil {
			return fmt.Errorf("kv: shard %d: %w", sh.id, err)
		}
	}
	return nil
}

// CheckPages validates every shard's page allocator against its tree (see
// mdb.DB.CheckPages). Call it on a freshly recovered store, before any
// request: once commits run, readers park superseded pages for a while.
func (s *Store) CheckPages() error {
	for _, sh := range s.shards {
		if err := sh.db.CheckPages(); err != nil {
			return fmt.Errorf("kv: shard %d: %w", sh.id, err)
		}
	}
	return nil
}
