package faultinject

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/kv"
	"nvmcache/internal/pmem"
)

// KVOptions shapes the kv exploration workloads.
type KVOptions struct {
	// Shards is the store's shard count; keys cycle across shards.
	Shards int
	// Ops and Keys size the deterministic exhaustive workload: Ops
	// operations cycling over a Keys-wide key space, so most writes
	// overwrite earlier ones and undo logging must restore real old
	// values, with a delete mixed in every fifth op.
	Ops  int
	Keys int
	// Policy and Config select the per-shard persistence technique.
	Policy core.PolicyKind
	Config core.Config
	// Runs and Clients size the randomized concurrent mode
	// (ExploreKVRandom): Runs crash runs, each with up to Clients
	// concurrently mutating client goroutines.
	Runs    int
	Clients int
	// Seed is the randomized mode's root seed; 0 takes -faultinject.seed.
	Seed uint64
	// Middleware, when non-nil, wraps each shard's sink between the
	// policy and the injection points (policy → middleware → injector →
	// pmem). Negative tests install DropDrains here.
	Middleware func(core.FlushSink) core.FlushSink
	// Pipeline runs the store under the asynchronous batched flush
	// pipeline and kv's overlapped commit protocol (publish batch N, apply
	// batch N+1, settle), in the pipeline's synchronous mode so the site
	// enumeration stays deterministic: hand-off, per-batch and epoch
	// boundaries join the site space.
	Pipeline bool
	// Absorb runs the store under kv's logical write-absorption layer
	// (same-key batch coalescing plus the counter accumulator), adding the
	// four absorption boundaries — merge, threshold commit, deadline
	// commit, absorb ack — to the site space. AbsorbThreshold and
	// AbsorbDeadline pass through to kv.AbsorbConfig: threshold 1 folds
	// every counter op into its own commit (threshold sites); a large
	// threshold with a short deadline parks each op until the shard's
	// deadline timer commits it (deadline sites). Either shape keeps the
	// blocking sequential workload's site enumeration deterministic — the
	// boundary sequence per op is the same whether the fold happens at
	// plan time or at the timer.
	Absorb          bool
	AbsorbThreshold int
	AbsorbDeadline  time.Duration
	// ResizeEvery, when positive, requests a write-cache resize on every
	// shard before each ResizeEvery-th sequential op, cycling the
	// capacities of resizeCycle. Requests are issued between acked ops —
	// the shard writers are idle — so each is applied at the next FASE end,
	// before that FASE's drain: the shrink evictions it forces become
	// ordinary FlushLine crash sites, enumerated deterministically, and the
	// sweep proves a crash mid-resize loses no acked write. Requires a
	// policy implementing core.CapacityControlled (the soft caches).
	ResizeEvery int
	// CheckpointEvery, when positive, runs the store with per-shard
	// checkpoints enabled (redo journal + double-buffered images) and
	// issues an explicit Store.Checkpoint after every CheckpointEvery-th
	// sequential op. Checkpoints are writer-driven and the workload is
	// blocking-sequential, so every shard is settled when the request
	// arrives — the begin/serialize-page/publish/truncate boundaries join
	// the site space deterministically. The timer and batch-count triggers
	// stay off (Interval 0, IntervalBatches 0) so explicit requests are the
	// only checkpoint cause the enumeration sees.
	CheckpointEvery int
}

// resizeCycle is the capacity schedule ResizeEvery steps through: a hard
// shrink to 1 (maximal evictions at the apply point), a growth to 50 (the
// knee search's upper range), and a shrink to 2.
var resizeCycle = []int{1, 50, 2}

// DefaultKVOptions keeps the exhaustive sweep in the low hundreds of
// sites: every site still gets its own crash run in well under a minute.
func DefaultKVOptions() KVOptions {
	return KVOptions{
		Shards: 2, Ops: 10, Keys: 4,
		Policy: core.SoftCacheOnline, Config: core.DefaultConfig(),
		Runs: 24, Clients: 3,
	}
}

func (o KVOptions) withDefaults() KVOptions {
	d := DefaultKVOptions()
	if o.Shards <= 0 {
		o.Shards = d.Shards
	}
	if o.Ops <= 0 {
		o.Ops = d.Ops
	}
	if o.Keys <= 0 {
		o.Keys = d.Keys
	}
	if o.Config == (core.Config{}) {
		o.Config = d.Config
	}
	if o.Runs <= 0 {
		o.Runs = d.Runs
	}
	if o.Clients <= 0 {
		o.Clients = d.Clients
	}
	return o
}

// storeOptions builds the small-footprint store configuration under the
// injector's hooks (inj may be nil for recovery, which must replay no
// faults while it repairs the heap).
func (o KVOptions) storeOptions(inj *Injector) kv.Options {
	ko := kv.DefaultOptions()
	ko.Shards = o.Shards
	ko.MaxBatch = 4
	ko.QueueDepth = 64
	ko.PoolPages = 256
	ko.LogEntries = 1 << 12
	ko.Policy = o.Policy
	ko.Config = o.Config
	if o.Pipeline {
		ko.Pipeline = pipelineConfig(true, inj)
	}
	if o.Absorb {
		ko.Absorb = kv.AbsorbConfig{
			Enabled:   true,
			Threshold: o.AbsorbThreshold,
			Deadline:  o.AbsorbDeadline,
		}
	}
	if o.CheckpointEvery > 0 {
		// Small geometry keeps the heap compact; RecoverWorkers 1 makes the
		// recovery-phase site enumeration (ExploreKVRecovery) deterministic.
		// No timer, no batch trigger: the explorer's explicit Checkpoint
		// calls are the only cause of a checkpoint.
		ko.Checkpoint = kv.CheckpointConfig{
			Enabled:        true,
			JournalOps:     256,
			MaxPairs:       64,
			RecoverWorkers: 1,
		}
	}
	if inj != nil {
		ko.WrapSink = func(id int32, s core.FlushSink) core.FlushSink {
			s = inj.WrapSink(id, s)
			if o.Middleware != nil {
				s = o.Middleware(s)
			}
			return s
		}
		ko.UndoHook = inj.UndoHook()
		ko.AckHook = func(int) { inj.AckPoint() }
		ko.AbsorbHook = inj.AbsorbHook()
		ko.CheckpointHook = inj.CheckpointHook()
		ko.RecoverHook = inj.RecoverHook()
		ko.IsInjectedCrash = IsCrash
	}
	return ko
}

// AbsorbHook has the shape of kv Options.AbsorbHook, numbering the
// absorption layer's boundaries as injection sites. It lives here rather
// than inject.go because it is the one injector seam that speaks kv's
// vocabulary.
func (in *Injector) AbsorbHook() func(kv.AbsorbOp) {
	return func(op kv.AbsorbOp) {
		switch op {
		case kv.AbsorbMerge:
			in.Point(KindAbsorbMerge)
		case kv.AbsorbThresholdCommit:
			in.Point(KindAbsorbThreshold)
		case kv.AbsorbDeadlineCommit:
			in.Point(KindAbsorbDeadline)
		case kv.AbsorbAck:
			in.Point(KindAbsorbAck)
		}
	}
}

// CheckpointHook has the shape of kv Options.CheckpointHook, numbering the
// checkpoint pipeline's persistence boundaries as injection sites: before
// the snapshot is taken, before each payload chunk persists, before the
// seal that validates the new image, and before the journal head advances
// past entries the older image covers.
func (in *Injector) CheckpointHook() func(kv.CkptOp) {
	return func(op kv.CkptOp) {
		switch op {
		case kv.CkptBegin:
			in.Point(KindCkptBegin)
		case kv.CkptPage:
			in.Point(KindCkptPage)
		case kv.CkptPublish:
			in.Point(KindCkptPublish)
		case kv.CkptTruncate:
			in.Point(KindLogTruncate)
		}
	}
}

type kvOpKind uint8

const (
	kvPut kvOpKind = iota
	kvDel
	kvIncr
	kvDecr
)

type kvOp struct {
	kind kvOpKind
	key  uint64
	val  uint64 // put: value; incr/decr: delta
}

// exhaustiveOps builds the deterministic sequential workload: puts cycling
// a narrow key space (so undo logging restores real old values), a delete
// every fifth op, and a counter op (incr or decr) every fourth — with
// absorption off these take the read-modify-write path inside the FASE,
// with absorption on they park in the accumulator and commit as net
// deltas, putting every absorption boundary into the site space.
func exhaustiveOps(o KVOptions) []kvOp {
	ops := make([]kvOp, o.Ops)
	for i := range ops {
		key := uint64(i % o.Keys)
		switch {
		case (i+1)%5 == 0:
			ops[i] = kvOp{kind: kvDel, key: key}
		case i%4 == 2 && i%8 == 2:
			ops[i] = kvOp{kind: kvIncr, key: key, val: uint64(i) + 3}
		case i%4 == 2:
			ops[i] = kvOp{kind: kvDecr, key: key, val: uint64(i) + 1}
		default:
			ops[i] = kvOp{kind: kvPut, key: key, val: 0xBEE5_0000 + uint64(i) + 1}
		}
	}
	return ops
}

// applyOps computes the expected key→value state after ops[:n], with kv's
// counter semantics: wrapping uint64 arithmetic, missing keys counting
// from zero (an incr/decr always leaves its key present).
func applyOps(ops []kvOp, n int) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for _, op := range ops[:n] {
		switch op.kind {
		case kvDel:
			delete(m, op.key)
		case kvIncr:
			m[op.key] += op.val
		case kvDecr:
			m[op.key] -= op.val
		default:
			m[op.key] = op.val
		}
	}
	return m
}

// kvSeqRun opens a fresh store under inj and issues the deterministic op
// sequence one at a time — each op is its own single-request batch through
// the full group-commit path (submit, FASE, commit, ack), which is what
// makes the site enumeration identical run to run. It returns the heap,
// how many ops were acked, and errInjected if the armed site crashed the
// store.
func kvSeqRun(o KVOptions, ops []kvOp, inj *Injector) (h *pmem.Heap, acked int, err error) {
	ko := o.storeOptions(inj)
	h = pmem.New(int(2 * kv.RecommendedHeapBytes(ko)))
	st, err := kv.Open(h, ko)
	if err != nil {
		return nil, 0, err
	}
	// Enumeration starts only now: the site space is the serving path, not
	// the store's own setup.
	inj.Enable()
	defer inj.Disable()
	for i, op := range ops {
		if o.ResizeEvery > 0 && i%o.ResizeEvery == 0 {
			c := resizeCycle[(i/o.ResizeEvery)%len(resizeCycle)]
			for sh := 0; sh < o.Shards; sh++ {
				if !st.RequestCacheResize(sh, c) {
					return h, acked, fmt.Errorf("shard %d: policy %v cannot resize", sh, o.Policy)
				}
			}
		}
		var err error
		switch op.kind {
		case kvDel:
			_, err = st.Delete(op.key)
		case kvIncr:
			_, err = st.Incr(op.key, op.val)
		case kvDecr:
			_, err = st.Decr(op.key, op.val)
		default:
			err = st.Put(op.key, op.val)
		}
		switch {
		case err == nil:
			acked++
		case errors.Is(err, kv.ErrCrashed):
			<-st.Crashed()
			return h, acked, errInjected
		default:
			return h, acked, err
		}
		if o.CheckpointEvery > 0 && (i+1)%o.CheckpointEvery == 0 {
			// Every shard is settled (the workload blocks per op), so the
			// checkpoint runs at a consistent tree/journal point and its
			// boundary sequence is identical run to run.
			switch cerr := st.Checkpoint(); {
			case cerr == nil:
			case errors.Is(cerr, kv.ErrCrashed):
				<-st.Crashed()
				return h, acked, errInjected
			default:
				return h, acked, cerr
			}
		}
	}
	inj.Disable()
	if err := st.Close(); err != nil {
		return h, acked, err
	}
	return h, acked, nil
}

// recoverAndVerifyKV recovers a crashed heap and checks the service
// contract: every acked op's effect is present with its exact value (no
// acked write lost), the single nacked op is fully rolled back (no unacked
// write visible) — except when the crash fired at the ack boundary, after
// its durable commit, where it must instead be fully applied — the tree
// invariants hold, the heap is self-consistent, and no dirty lines remain
// once the recovered store closes.
func recoverAndVerifyKV(o KVOptions, h *pmem.Heap, ops []kvOp, acked int, crash Crash) (checks int, rrep atlas.RecoveryReport, err error) {
	st, rrep, err := kv.Recover(h, o.storeOptions(nil))
	if err != nil {
		return 0, rrep, err
	}
	if err := st.CheckInvariants(); err != nil {
		return checks, rrep, err
	}
	checks++
	visible := acked
	if (crash.Kind == KindAck || crash.Kind == KindAbsorbAck) && acked < len(ops) {
		// The nacked op's batch committed durably before the ack boundary
		// crashed: it must be visible, exactly once, untorn. KindAbsorbAck is
		// the same boundary for an absorbed commit's parked counter acks; a
		// net-null op acked without a FASE crosses KindAck too, and counting
		// it visible is still exact because its net effect on the expected
		// state is nothing.
		visible = acked + 1
	}
	want := applyOps(ops, visible)
	for k := uint64(0); k < uint64(o.Keys); k++ {
		got, found, err := st.Get(k)
		if err != nil {
			return checks, rrep, err
		}
		wantV, wantFound := want[k]
		if found != wantFound || (found && got != wantV) {
			return checks, rrep, fmt.Errorf("key %d: got (%#x, present=%v), want (%#x, present=%v)",
				k, got, found, wantV, wantFound)
		}
		checks++
	}
	if err := st.Close(); err != nil {
		return checks, rrep, err
	}
	if err := h.CheckConsistency(); err != nil {
		return checks, rrep, err
	}
	checks++
	if n := h.DirtyCount(); n != 0 {
		return checks, rrep, fmt.Errorf("%d dirty lines after recovered store closed", n)
	}
	checks++
	return checks, rrep, nil
}

// ExploreKV exhaustively explores every injection site of the kv serving
// path: one counting run enumerates the boundaries (undo appends, line
// write-backs, drain steps, ack boundaries), then each site gets its own
// fresh store, a crash at exactly that boundary, kv.Recover, and the full
// service-contract check. The first violated invariant aborts the sweep
// with an error naming the site and boundary kind.
func ExploreKV(o KVOptions) (Report, error) {
	o = o.withDefaults()
	ops := exhaustiveOps(o)
	counter := NewCounting()
	_, acked, err := kvSeqRun(o, ops, counter)
	if err != nil {
		return Report{}, fmt.Errorf("faultinject: counting run: %w", err)
	}
	if acked != len(ops) {
		return Report{}, fmt.Errorf("faultinject: counting run acked %d/%d ops", acked, len(ops))
	}
	rep := Report{Sites: counter.Sites(), Kinds: counter.Kinds()}
	for site := 0; site < rep.Sites; site++ {
		inj := NewArmed(site)
		h, acked, err := kvSeqRun(o, ops, inj)
		if !errors.Is(err, errInjected) {
			if err != nil {
				return rep, fmt.Errorf("faultinject: run %d: %w", site, err)
			}
			return rep, fmt.Errorf("faultinject: site %d never fired (%d sites enumerated; workload not deterministic?)",
				site, rep.Sites)
		}
		crash, _ := inj.Fired()
		checks, rrep, err := recoverAndVerifyKV(o, h, ops, acked, crash)
		rep.Checks += checks
		rep.FASEsRolledBack += rrep.FASEsRolledBack
		rep.WordsRestored += rrep.WordsRestored
		if err != nil {
			return rep, fmt.Errorf("faultinject: invariant violated after %v (acked %d/%d ops): %w",
				crash, acked, len(ops), err)
		}
		rep.Runs++
		rep.Crashes++
	}
	return rep, nil
}

// genCrashedKVHeap re-runs the deterministic workload with the given
// serving site armed, producing a bit-identical crashed heap on every
// call — the recovery explorer's way of getting a fresh copy of "the same
// crash" for each recovery-phase site it wants to cut.
func genCrashedKVHeap(o KVOptions, ops []kvOp, servingSite int) (*pmem.Heap, int, Crash, error) {
	inj := NewArmed(servingSite)
	h, acked, err := kvSeqRun(o, ops, inj)
	if !errors.Is(err, errInjected) {
		if err != nil {
			return nil, 0, Crash{}, err
		}
		return nil, 0, Crash{}, fmt.Errorf("serving site %d never fired", servingSite)
	}
	crash, _ := inj.Fired()
	return h, acked, crash, nil
}

// ExploreKVRecovery crashes the recovery itself. For a spread of serving
// crash shapes (each a deterministic armed site in the checkpointed
// serving sweep), it enumerates every persistence boundary crossed while
// kv.Recover repairs that heap — undo rollbacks, rebuild-FASE flushes,
// replay batches, generation installs, repair-checkpoint pages — then, per
// boundary, regenerates the identical crashed heap, cuts the recovery at
// exactly that point (kv.Recover must return ErrCrashed with the heap
// quiesced), and proves idempotence: a second, clean Recover must converge
// to the exact expected state, same as if the first recovery had never been
// interrupted. RecoverWorkers is pinned to 1 so the recovery-phase site
// enumeration is deterministic.
func ExploreKVRecovery(o KVOptions) (Report, error) {
	o = o.withDefaults()
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 3
	}
	ops := exhaustiveOps(o)
	counter := NewCounting()
	if _, acked, err := kvSeqRun(o, ops, counter); err != nil {
		return Report{}, fmt.Errorf("faultinject: counting run: %w", err)
	} else if acked != len(ops) {
		return Report{}, fmt.Errorf("faultinject: counting run acked %d/%d ops", acked, len(ops))
	}
	serving := counter.Sites()
	if serving == 0 {
		return Report{}, errors.New("faultinject: no serving sites enumerated")
	}
	// A handful of serving shapes spread across the run: early (little
	// durable state, maybe no image yet), around the checkpoints in the
	// middle, and the very last boundary (journal suffix at its longest).
	shapes := []int{0, serving / 4, serving / 2, 3 * serving / 4, serving - 1}
	rep := Report{Kinds: make(map[Kind]int)}
	seen := make(map[int]bool)
	for _, s := range shapes {
		if seen[s] {
			continue
		}
		seen[s] = true
		h, acked, crash, err := genCrashedKVHeap(o, ops, s)
		if err != nil {
			return rep, fmt.Errorf("faultinject: serving shape %d: %w", s, err)
		}
		// Counting pass over this heap's recovery. The injector is disabled
		// again before the recovered store is closed, so the enumeration
		// covers exactly the Recover window.
		rcount := NewCounting()
		rcount.Enable()
		st, _, err := kv.Recover(h, o.storeOptions(rcount))
		rcount.Disable()
		if err != nil {
			return rep, fmt.Errorf("faultinject: shape %d: counting recovery: %w", s, err)
		}
		if err := st.Close(); err != nil {
			return rep, fmt.Errorf("faultinject: shape %d: close after counting recovery: %w", s, err)
		}
		rsites := rcount.Sites()
		if rsites == 0 {
			return rep, fmt.Errorf("faultinject: shape %d: recovery crossed no boundaries", s)
		}
		rep.Sites += rsites
		for k, n := range rcount.Kinds() {
			rep.Kinds[k] += n
		}
		for site := 0; site < rsites; site++ {
			h, acked2, _, err := genCrashedKVHeap(o, ops, s)
			if err != nil {
				return rep, fmt.Errorf("faultinject: shape %d site %d: regenerate: %w", s, site, err)
			}
			if acked2 != acked {
				return rep, fmt.Errorf("faultinject: shape %d not deterministic: acked %d then %d", s, acked, acked2)
			}
			rinj := NewArmed(site)
			rinj.Enable()
			_, _, rerr := kv.Recover(h, o.storeOptions(rinj))
			rinj.Disable()
			if !errors.Is(rerr, kv.ErrCrashed) {
				if rerr != nil {
					return rep, fmt.Errorf("faultinject: shape %d recovery site %d: %w", s, site, rerr)
				}
				return rep, fmt.Errorf("faultinject: shape %d recovery site %d never fired (%d sites; recovery not deterministic?)",
					s, site, rsites)
			}
			rcrash, fired := rinj.Fired()
			if !fired {
				return rep, fmt.Errorf("faultinject: shape %d recovery site %d: ErrCrashed without a fired site", s, site)
			}
			// Second, clean recovery of the twice-crashed heap: the exact
			// acked-state oracle still decides, against the original serving
			// crash's ack-boundary semantics.
			checks, rrep, err := recoverAndVerifyKV(o, h, ops, acked, crash)
			rep.Checks += checks
			rep.FASEsRolledBack += rrep.FASEsRolledBack
			rep.WordsRestored += rrep.WordsRestored
			if err != nil {
				return rep, fmt.Errorf("faultinject: shape %d (%v): recovery crashed at %v, second recovery violated invariant: %w",
					s, crash, rcrash, err)
			}
			rep.Runs++
			rep.Crashes++
		}
	}
	return rep, nil
}

// randSchedule is one randomized run's sampled shape.
type randSchedule struct {
	maxBatch int
	clients  int
	opsPer   int
	keysPer  int
	target   int
}

// keyWrites tracks, for one key, the values issued in order and the index
// of the last acked one (-1: none acked).
type keyWrites struct {
	vals  []uint64
	acked int
}

// counterKey is client c's private counter key, disjoint from its put
// slots (keysPer stays far below 1<<16).
func counterKey(c int) uint64 { return uint64(c)<<20 | 1<<16 }

// ExploreKVRandom is the seeded randomized mode for long-running sweeps:
// each run samples a concurrent schedule (clients, batch shape) and a
// crash site from one PCG stream, so a failure reproduces exactly from the
// reported seed (settable with -faultinject.seed). Group-commit batching
// makes concurrent site spaces nondeterministic, so a run may miss its
// armed site; missed runs complete, are verified crash-free, and are
// tallied in Report.Missed.
//
// The per-key invariant is weaker than the sequential mode's exact-state
// check, because ack-boundary crashes legally commit nacked writes: a
// key's recovered value must be one of the values written to it no older
// than its last acked write, and a key may be absent only if none of its
// writes were acked.
func ExploreKVRandom(o KVOptions) (Report, error) {
	o = o.withDefaults()
	seed := o.Seed
	if seed == 0 {
		seed = FlagSeed()
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	rep := Report{Seed: seed}
	fail := func(sched randSchedule, err error) (Report, error) {
		return rep, fmt.Errorf("faultinject: randomized run %d (seed %d, schedule %+v): %w",
			rep.Runs, seed, sched, err)
	}
	for run := 0; run < o.Runs; run++ {
		sched := randSchedule{
			maxBatch: 1 + rng.IntN(8),
			clients:  2 + rng.IntN(o.Clients),
			opsPer:   6 + rng.IntN(10),
			keysPer:  2 + rng.IntN(4),
		}
		// A counting pass over the same schedule estimates the site space;
		// the armed site is drawn a little beyond it so some runs
		// deliberately miss and exercise the crash-free path.
		counter := NewCounting()
		if _, _, err := kvRandRun(o, sched, counter, rng.Uint64()); err != nil {
			return fail(sched, err)
		}
		est := counter.Sites()
		rep.Sites += est
		sched.target = rng.IntN(est + est/4 + 1)
		inj := NewArmed(sched.target)
		checks, rrep, err := kvRandRun(o, sched, inj, rng.Uint64())
		rep.Runs++
		rep.Checks += checks
		rep.FASEsRolledBack += rrep.FASEsRolledBack
		rep.WordsRestored += rrep.WordsRestored
		if err != nil {
			return fail(sched, err)
		}
		if _, fired := inj.Fired(); fired {
			rep.Crashes++
		} else {
			rep.Missed++
		}
	}
	return rep, nil
}

// kvRandRun executes one concurrent schedule under inj, then recovers (if
// the site fired) and verifies the per-key invariant. workloadSeed only
// perturbs client op interleaving hints, not correctness.
func kvRandRun(o KVOptions, sched randSchedule, inj *Injector, workloadSeed uint64) (checks int, rrep atlas.RecoveryReport, err error) {
	ko := o.storeOptions(inj)
	ko.MaxBatch = sched.maxBatch
	h := pmem.New(int(2 * kv.RecommendedHeapBytes(ko)))
	st, err := kv.Open(h, ko)
	if err != nil {
		return 0, rrep, err
	}
	inj.Enable()
	defer inj.Disable()

	logs := make([][]keyWrites, sched.clients)
	ctrs := make([]keyWrites, sched.clients)
	var wg sync.WaitGroup
	for c := 0; c < sched.clients; c++ {
		keys := make([]keyWrites, sched.keysPer)
		for i := range keys {
			keys[i].acked = -1
		}
		logs[c] = keys
		ctrs[c].acked = -1
		wg.Add(1)
		go func(c int, crng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < sched.opsPer; i++ {
				if i%3 == 2 {
					// Every third op increments the client's private counter
					// key. Recording the running sums as the issued values
					// makes the per-key prefix invariant below apply
					// unchanged: each client has at most one op in flight, so
					// a recovered counter is the last acked sum or its
					// successor — with absorption on, the successor's delta
					// may have parked in the accumulator and committed as a
					// net delta (or been nacked with nothing durable).
					kw := &ctrs[c]
					d := 1 + uint64(crng.IntN(7))
					var last uint64
					if n := len(kw.vals); n > 0 {
						last = kw.vals[n-1]
					}
					kw.vals = append(kw.vals, last+d)
					if _, err := st.Incr(counterKey(c), d); err != nil {
						return
					}
					kw.acked = len(kw.vals) - 1
					continue
				}
				slot := crng.IntN(sched.keysPer)
				key := uint64(c)<<20 | uint64(slot)
				val := uint64(c)<<32 | uint64(i+1)
				kw := &logs[c][slot]
				kw.vals = append(kw.vals, val)
				if err := st.Put(key, val); err != nil {
					// ErrCrashed (or a racing nack): stop; the write stays
					// recorded as issued-but-unacked.
					return
				}
				kw.acked = len(kw.vals) - 1
			}
		}(c, rand.New(rand.NewPCG(workloadSeed, uint64(c))))
	}
	wg.Wait()
	inj.Disable()

	if _, fired := inj.Fired(); fired {
		<-st.Crashed()
		st, rrep, err = kv.Recover(h, o.storeOptions(nil))
		if err != nil {
			return 0, rrep, err
		}
	}
	if err := st.CheckInvariants(); err != nil {
		return checks, rrep, err
	}
	checks++
	checkKey := func(key uint64, kw *keyWrites) error {
		got, found, err := st.Get(key)
		if err != nil {
			return err
		}
		if !found {
			if kw.acked >= 0 {
				return fmt.Errorf("key %#x absent but write %d was acked", key, kw.acked)
			}
			return nil
		}
		for i := max(kw.acked, 0); i < len(kw.vals); i++ {
			if kw.vals[i] == got {
				return nil
			}
		}
		return fmt.Errorf("key %#x = %#x, not among writes ≥ last acked (%v, acked %d)",
			key, got, kw.vals, kw.acked)
	}
	for c := range logs {
		for slot := range logs[c] {
			key := uint64(c)<<20 | uint64(slot)
			if err := checkKey(key, &logs[c][slot]); err != nil {
				return checks, rrep, err
			}
			checks++
		}
		if err := checkKey(counterKey(c), &ctrs[c]); err != nil {
			return checks, rrep, err
		}
		checks++
	}
	if err := st.Close(); err != nil {
		return checks, rrep, err
	}
	if err := h.CheckConsistency(); err != nil {
		return checks, rrep, err
	}
	checks++
	if n := h.DirtyCount(); n != 0 {
		return checks, rrep, fmt.Errorf("%d dirty lines after store closed", n)
	}
	checks++
	return checks, rrep, nil
}
