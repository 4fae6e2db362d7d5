// Package kv is a sharded, group-committing, durable key-value service
// layered on the paper's persistence stack: each shard owns one mdb COW
// B+-tree on its own atlas.Thread and a queue of requests, which whoever
// holds the shard's commit lock drains into a single Begin/…/Commit
// failure-atomic section. There is no writer goroutine: as the paper's
// storing thread flushes its own lines, the goroutine that waits on a
// request commits it (flat combining) — Ticket.Wait takes the commit lock
// and commits everything queued on the shard, its own request and every
// other caller's, so a caller whose request someone else already committed
// finds it done. Group commit is the paper's write-combining idea lifted one
// level: where the software cache combines flushes of the same line
// *within* a FASE, a commit combines whole operations *into* one FASE, so
// the root-to-leaf page copies of a B+-tree update are paid once per batch
// instead of once per operation and the FASE-end drain is amortized over the
// batch. Batches form naturally: a committer takes whatever is queued when
// it takes the lock, so requests arriving during a commit share the next
// one and a lone request waits for nothing. Requesters are acked only after
// the commit's flush completes, so an acked write survives any crash (see
// Crash and Recover).
//
// A batch whose every mutation overwrites a key already present — a PUT,
// INCR or DECR, queued GETs alongside — skips the copy:
// each new value is stored in place into its committed leaf word, and the
// FASE's drain of those lines (one per key, where a copy-on-write update
// writes back its whole root-to-leaf path) is the commit. An aligned word
// store is failure-atomic, so this needs no undo record; what it gives up
// is rollback, which is why only such batches take it: a crash mid-drain
// leaves each overwritten key old or new. Any insert, delete or MPUT
// copies on write as before.
//
// Every mutation is a Submit (enqueue, returns at once) and a Wait on a
// caller-owned, reusable Ticket; Put, Delete, Incr, Decr and PutBatch are
// that pair back to back. A caller that keeps many tickets in flight — a
// connection's pipelined window — gets them committed together, by its own
// first Wait on each shard.
//
// Get and GetBatch never enter a queue and, unless a run of commits starves
// them, take no lock: they are snapshot reads against the last committed
// root, published atomically by the commit, pinned in a slot of the shard's
// reader table that sits on a cache line of its own. Superseded pages are
// reclaimed only once no pin that can still see them is live (deferred
// reclamation via mdb.SetFreeHook), so pinned readers never block writers
// and writers never invalidate readers. A point lookup — Get, an in-place
// batch's slot resolution and its queued GETs — rarely walks the tree: each
// shard keeps a lossy slot cache from a key to the leaf entry that last held
// it, which answers only when that leaf is in the published tree and still
// holds the key, and otherwise descends and remembers what it found. The
// cache is volatile and needs no maintenance on commits; only the page-level
// live map it validates against changes, when a commit publishes a new root.
// No read returns a value a crash could still lose or a later reader not yet
// see: from an in-place commit's first store until its drain, a Get or
// GetBatch answers each word the commit overwrites from the durable
// pre-image the commit published before it opened, and it reads again if a
// copy-on-write commit publishes under it or more than one in-place window
// opens or closes during its loads. A read whose passes keep failing, and a
// Scan, which must see one tree throughout, read under the shard's commit
// lock instead, between commits. The one queued read is a Submit of OpGet,
// for a caller whose read must follow its own writes still in flight: its
// commit answers it at its queue position, from the batch's tree, and acks
// it with the batch after the durable commit, so it never returns a value
// that could be lost. A batch of GETs alone has nothing to commit and opens
// no FASE.
package kv

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

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
	// operation was not acked and may or may not be durable. After
	// Recover, a copy-on-write batch aborted mid-FASE is rolled back in
	// full; an in-place batch (overwrites of present keys) leaves each of
	// its keys with its old or its new value, untorn.
	ErrCrashed = errors.New("kv: store crashed")
)

// Options configures a Store. Use DefaultOptions as the base; zero numeric
// fields are replaced by defaults, but Policy/Config are taken as-is.
type Options struct {
	// Shards is the number of independent engines (trees, request queues,
	// commit locks). Keys are routed by ShardIndex.
	Shards int
	// MaxBatch bounds how many operations one commit may absorb: a committer
	// stops gathering once the batch holds this many (a multi-pair request
	// taken last may carry it past the bound); 1 disables group commit
	// (every operation is its own FASE). It bounds commit latency and the
	// pages one FASE copies, not the undo log: see LogEntries.
	MaxBatch int
	// QueueDepth is the per-shard request queue capacity. A Submit that
	// finds its shard's queue full commits a batch of it before queuing.
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
	// Events, when non-nil, observes every persistence boundary: each shard
	// thread's atlas sites (thread = the shard's index), Recover's, and the
	// group commit's own, atlas.SitePreCommit and atlas.SiteAck (arg = the
	// batch's request count). A panic with an atlas.Crash is a power failure
	// there: the committer crashes the store, and a Recover cut that way
	// quiesces the heap and returns ErrCrashed (a second Recover converges).
	// Other panics propagate. Blocking at SiteAck holds the shard's commit
	// lock.
	Events atlas.Events
	// WrapSink is forwarded to atlas.Options, for tests that substitute a
	// fake sink. Shard i's thread id is i.
	WrapSink func(thread int32, sink core.FlushSink) core.FlushSink
}

// faseLoggedWords is the most distinct words any shard FASE undo-logs:
// mdb.Create's one-time meta initialisation (root, generation, page arena).
// Every copy-on-write serving FASE logs two, the tree's root and
// generation, whatever its batch holds: the pages it writes are private
// stores. An in-place FASE logs none.
const faseLoggedWords = 3

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
		// rollback needs it, and the headroom costs 768 B per log.
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
	return o
}

// RecommendedHeapBytes estimates the persistent heap a store with these
// options needs. Recovery allocates nothing: it frees the crashed
// incarnation's undo logs for the recovered threads to claim, and the page
// allocator is rebuilt from the tree.
func RecommendedHeapBytes(o Options) uint64 {
	o = o.withDefaults()
	perShard := mdb.ArenaBytes(o.PoolPages) + // page pool arena
		16*uint64(o.LogEntries) + // undo log entries
		8*64 // meta page, log headers, slack
	total := uint64(o.Shards) * perShard
	total += dirBytes(o.Shards) + 64 + 1<<14 // directory + registry + slack
	return total + total/4
}

// dirBytes is the shard directory's size: the shard count, then each
// shard's mdb meta address.
func dirBytes(shards int) uint64 { return 8 + 8*uint64(shards) }

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

	crashing  atomic.Bool
	crashDone chan struct{} // closed when the crash has fully taken effect

	// state is stateServing, then stateClosed or stateCrashed. Readers load
	// it after they pin (see shard.pin); the queues carry their own copy.
	state atomic.Int32
}

func runtimeOptions(o Options) atlas.Options {
	// Trace recording is always off: a serving store runs indefinitely and
	// per-store trace buffers grow without bound.
	return atlas.Options{Policy: o.Policy, Config: o.Config, LogEntries: o.LogEntries, DisableTrace: true,
		Events: o.Events, WrapSink: o.WrapSink}
}

// Open creates a new store in an empty heap: a shard directory (shard
// count and each shard's mdb meta address) becomes the heap root, so
// Recover can reattach after a restart.
func Open(heap *pmem.Heap, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if heap.Root() != 0 {
		return nil, errors.New("kv: heap already holds a store; use Recover")
	}
	rt := atlas.NewRuntime(heap, runtimeOptions(opts))
	dir, err := heap.AllocLines(dirBytes(opts.Shards))
	if err != nil {
		return nil, fmt.Errorf("kv: allocating shard directory: %w", err)
	}
	heap.WriteUint64(dir, uint64(opts.Shards))
	s := &Store{heap: heap, rt: rt, opts: opts, crashDone: make(chan struct{})}
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
		s.shards = append(s.shards, newShard(s, i, th, db))
	}
	heap.Persist(dir, dirBytes(opts.Shards))
	heap.SetRoot(dir)
	return s, nil
}

// crashGuard runs fn, converting an injected power failure (a panic with
// an atlas.Crash) into crashed=true: the recovery-side mirror of
// applyBatch's recover.
func crashGuard(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(atlas.Crash); !ok {
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
// Every commit left each shard's COW tree durable and complete, so after the
// rollback there is nothing to rebuild: Recover reads the shard directory,
// attaches each tree (mdb.Attach rebuilds the volatile page allocator from
// it) and resumes serving. Its cost is bounded by the pool size, not by
// the store's history.
//
// Recovery itself is crash-safe: an injected crash at any of its Events
// boundaries quiesces the heap and returns ErrCrashed, and a fresh Recover on
// the same heap converges, because the undo rollback is idempotent.
func Recover(heap *pmem.Heap, opts Options) (*Store, atlas.RecoveryReport, error) {
	opts = opts.withDefaults()
	var rep atlas.RecoveryReport
	var aerr error
	if crashGuard(func() { rep, aerr = atlas.RecoverWith(heap, opts.Events) }) {
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

	rt := atlas.NewRuntime(heap, runtimeOptions(opts))
	s := &Store{heap: heap, rt: rt, opts: opts, crashDone: make(chan struct{})}
	for i := 0; i < opts.Shards; i++ {
		th, err := rt.NewThread()
		if err != nil {
			return nil, rep, fmt.Errorf("kv: shard %d: %w", i, err)
		}
		db, err := mdb.Attach(th, heap.ReadUint64(dir+8+8*uint64(i)))
		if err != nil {
			return nil, rep, fmt.Errorf("kv: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, newShard(s, i, th, db))
	}
	return s, rep, nil
}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// ShardFor returns the shard index serving key k.
func (s *Store) ShardFor(k uint64) int { return ShardIndex(k, len(s.shards)) }

// Heap returns the underlying persistent heap.
func (s *Store) Heap() *pmem.Heap { return s.heap }

// enqueue queues a request on its shard, or returns ErrClosed or
// ErrCrashed once Close or the crash has shut the shard's queue (they shut
// it under the lock push takes, so no push races them). A full queue is not
// waited on: the caller commits a batch of it itself, as a Wait would, and
// tries again.
func (s *Store) enqueue(sh *shard, r request) error {
	for {
		if err := sh.q.push(r); err != errQueueFull {
			return err
		}
		if s.crashing.Load() {
			return ErrCrashed
		}
		sh.commitQueued()
	}
}

// Submit queues one single-key request on its shard and returns without
// waiting for the commit; the outcome arrives through t.Wait, which
// commits the request if it is still queued. For OpPut v is the value, for
// OpIncr/OpDecr the delta, for OpDel and OpGet it is ignored. Submit never
// waits for room in a full queue — it commits a batch of the queue first —
// and never fails on its own: a store that is closed or has crashed
// completes the ticket with ErrClosed or ErrCrashed. Requests submitted to
// one shard by one goroutine are applied in submission order.
func (s *Store) Submit(t *Ticket, op Op, k, v uint64) {
	sh := s.shards[ShardIndex(k, len(s.shards))]
	t.arm(sh)
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
		t.arm(nil)
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
	if touched == 1 {
		si := ShardIndex(pairs[0].K, ns)
		s.submitPart(t, s.shards[si], grouped)
		return
	}
	if cap(t.parts) < touched {
		t.parts = make([]Ticket, touched)
	}
	t.parts = t.parts[:touched]
	part := 0
	for i := 0; i < ns; i++ {
		if counts[i] == 0 {
			continue
		}
		// offs[i] has advanced to the end of shard i's run.
		s.submitPart(&t.parts[part], s.shards[i], grouped[offs[i]-counts[i]:offs[i]])
		part++
	}
}

// submitPart queues one shard's share of a SubmitBatch on t.
func (s *Store) submitPart(t *Ticket, sh *shard, pairs []Pair) {
	t.arm(sh)
	if err := s.enqueue(sh, request{op: opPuts, pairs: pairs, t: t}); err != nil {
		t.complete(Result{Err: err})
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
// operation's serialization point. Like Put, a returned Incr survives any
// crash.
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
// wire protocol's MGET. It reads as Get does, with one pass per shard
// touched: the shards are pinned once each, in index order (so two
// GetBatches never wait on each other for reader slots), every key is read
// through its shard's pass, and a shard whose pass does not stand is read
// again, under its commit lock once readPasses passes have failed. So the
// view is per-shard consistent: one shard's values all come from one
// committed state, and like Get's every one was durable when read.
// Allocation-free for stores with up to getBatchShards shards.
func (s *Store) GetBatch(keys, vals []uint64, found []bool) error {
	if len(keys) == 0 {
		return nil
	}
	ns := len(s.shards)
	var passesArr [getBatchShards]readPass
	var leftArr [getBatchShards]uint64
	// left counts each shard's keys until a pass over them stands.
	passes, left := passesArr[:], leftArr[:]
	if ns > getBatchShards {
		passes = make([]readPass, ns)
		left = make([]uint64, ns)
	}
	for _, k := range keys {
		left[ShardIndex(k, ns)]++
	}
	for tries, more := 0, true; more; tries++ {
		if tries == readPasses {
			return s.getLocked(keys, vals, found, left)
		}
		for si, sh := range s.shards {
			passes[si] = readPass{}
			if left[si] == 0 {
				continue
			}
			var err error
			if passes[si], err = sh.begin(uint32(keys[0])); err != nil {
				for sj := range si {
					if passes[sj].rs != nil {
						s.shards[sj].end(&passes[sj], 0, false)
					}
				}
				return err
			}
		}
		// Resolve every key's word first (vals holds it meanwhile), then
		// load the words under each shard's guard, so the guarded span is
		// the loads alone.
		for i, k := range keys {
			if si := ShardIndex(k, ns); passes[si].rs != nil {
				vals[i] = s.shards[si].lookup(passes[si].root, k, &passes[si].rs.descents)
			}
		}
		for si, sh := range s.shards {
			if passes[si].rs != nil {
				sh.guard(&passes[si])
			}
		}
		for i, k := range keys {
			if si := ShardIndex(k, ns); passes[si].guarded {
				found[i] = vals[i] != 0
				vals[i] = s.shards[si].load(&passes[si], vals[i])
			}
		}
		more = false
		for si, sh := range s.shards {
			p := &passes[si]
			if p.rs == nil {
				continue
			}
			ok := sh.holds(p)
			if ok && p.fix {
				for i, k := range keys {
					if ShardIndex(k, ns) == si {
						vals[i] = sh.fixup(p, sh.lookup(p.root, k, &p.rs.descents), vals[i])
					}
				}
				ok = sh.fixed(p)
			}
			if sh.end(p, left[si], ok) {
				left[si] = 0
			} else {
				more = true
			}
		}
	}
	return nil
}

// getLocked reads GetBatch's keys of every shard whose lock-free passes all
// failed (left[si] > 0) under that shard's commit lock.
func (s *Store) getLocked(keys, vals []uint64, found []bool, left []uint64) error {
	ns := len(s.shards)
	for si, sh := range s.shards {
		if left[si] == 0 {
			continue
		}
		err := sh.locked(func(root uint64) {
			for i, k := range keys {
				if ShardIndex(k, ns) == si {
					vals[i], found[i] = sh.get(root, k, &sh.descents)
				}
			}
			sh.gets.Add(left[si])
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Get reads k from the shard's last committed snapshot, without entering a
// queue or taking a lock: it pins the snapshot in a free slot of the
// shard's reader table, asks the shard's slot cache for k's leaf entry, and
// descends from the pinned root only when the cache has none that is still
// in the published tree. Its only store to shared memory is to the slot,
// on a cache line of its own. A reader never blocks a commit, and an
// in-place commit never blocks a reader: while its words are stored but
// not yet durable, the reader answers each one from the durable pre-image
// the commit published before its first store. Only a copy-on-write
// publish, a few stores long, sends a reader round again, and a reader
// whose passes keep failing (readPasses) reads under the shard's commit
// lock, between commits. An overwrite takes effect for readers when its
// drain completes, inside its own request. A read that must see the
// caller's own writes still in flight is a Submit of OpGet instead. Reads
// keep working after Close (the heap stays attached) but not after a
// crash.
func (s *Store) Get(k uint64) (uint64, bool, error) { return s.GetHinted(k, uint32(k)) }

// GetHinted is Get with the caller's choice of where in the reader table
// its search for a free slot starts. A caller that reads on and on from one
// goroutine — a server connection — passes the same hint every time and
// keeps reusing its own slot's cache line; callers with distinct hints
// rarely meet on a slot.
func (s *Store) GetHinted(k uint64, hint uint32) (uint64, bool, error) {
	return s.shards[ShardIndex(k, len(s.shards))].read(k, hint)
}

// Pair is one key/value returned by Scan.
type Pair struct{ K, V uint64 }

// Scan returns up to n pairs with keys ≥ start in ascending key order.
// Keys are hash-routed across shards, so each shard's B+-tree holds an
// arbitrary key subset: Scan walks every shard's last committed tree from
// start (up to n pairs each) and merges, giving a globally ordered range
// read. Each shard is walked under its commit lock, one after another, so
// the merged view is per-shard — not cross-shard — consistent: a shard's
// walk waits out the commit in flight there and holds the next one off
// until it is through. Like Get it never enters a queue.
func (s *Store) Scan(start uint64, n int) ([]Pair, error) {
	if n <= 0 {
		return nil, nil
	}
	all := make([]Pair, 0, n)
	for _, sh := range s.shards {
		err := sh.locked(func(root uint64) {
			taken := 0
			for c := sh.db.Seek(root, start); c.Valid() && taken < n; c.Next() {
				all = append(all, Pair{c.Key(), c.Value()})
				taken++
			}
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].K < all[j].K })
	if len(all) > n {
		all = all[:n]
	}
	s.shards[ShardIndex(start, len(s.shards))].scans.Add(1)
	return all, nil
}

// Close drains every shard gracefully: requests are accepted no more,
// queued ones are batched, committed and acked on the caller's goroutine,
// and the runtime's residual dirty state is persisted. Reads remain
// possible afterwards.
func (s *Store) Close() error {
	if !s.state.CompareAndSwap(stateServing, stateClosed) {
		if s.state.Load() == stateCrashed {
			return ErrCrashed
		}
		return nil
	}
	for _, sh := range s.shards {
		sh.q.close(stateClosed)
		sh.serve(nil)
	}
	if s.crashing.Load() {
		return ErrCrashed
	}
	s.rt.Close()
	return nil
}

// Crash simulates a power failure: in-flight batches are abandoned
// mid-FASE (never acked, rolled back by Recover), commits stop, the heap's
// volatile view is discarded, and every queued request fails with
// ErrCrashed. The Store is unusable afterwards; build a new one with
// Recover on the same heap.
func (s *Store) Crash() error { return s.initiateCrash(nil) }

// Crashed is closed once a crash (external or injected) has fully taken
// effect — after it, the heap is safe to Recover.
func (s *Store) Crashed() <-chan struct{} { return s.crashDone }

// initiateCrash coordinates the failure: it takes every shard's commit lock
// first, which waits out the commits in flight (each sees crashing at its
// next check and stops) and the locked reads, so no goroutine mutates the
// heap while its volatile view is dropped. Then it sets the state, which
// every reader checks after it pins, and waits out the reads already
// pinned, so none reads the heap while it is dropped either. Last, still
// holding the locks, it shuts every queue and fails the requests queued
// there. except is the shard whose committer initiates the crash from
// inside its own FASE (an injected crash), which holds that lock already
// and nacks its own batch after this returns.
func (s *Store) initiateCrash(except *shard) error {
	if !s.crashing.CompareAndSwap(false, true) {
		return ErrCrashed
	}
	for _, sh := range s.shards {
		if sh != except {
			sh.commitMu.Lock()
		}
	}
	s.state.Store(stateCrashed)
	for _, sh := range s.shards {
		sh.waitReads()
	}
	s.heap.Crash()
	// No Get can be inside a shard now and no commit can start, so the slot
	// caches pass to whichever recovery comes next.
	for _, sh := range s.shards {
		slotCaches.Put(sh.cache)
		// Not through gather: a committer that initiated the crash still owes
		// the batch in its buffer the nack.
		sh.q.close(stateCrashed)
		nackAll(sh.q.take(nil, math.MaxInt), ErrCrashed)
	}
	for _, sh := range s.shards {
		if sh != except {
			sh.commitMu.Unlock()
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
