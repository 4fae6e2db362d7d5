package faultinject

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

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
	// policy and the injection points (policy → middleware → events →
	// pmem). Negative tests install DropDrains here.
	Middleware func(core.FlushSink) core.FlushSink
}

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

// storeOptions builds the small-footprint store configuration reporting
// its boundaries to inj (inj may be nil for recovery, which must replay no
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
	if inj != nil {
		ko.Events = inj.Events
		ko.WrapSink = wrapWith(o.Middleware)
	}
	return ko
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
// every fifth op, and a counter op (incr or decr) every fourth, which takes
// the read-modify-write path inside the FASE.
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
	for _, op := range ops {
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
	}
	inj.Disable()
	if err := st.Close(); err != nil {
		return h, acked, err
	}
	return h, acked, nil
}

// inPlaceOp reports whether ops[i], issued alone after ops[:i], commits in
// place: it is a put or counter op of a key the earlier ops left present
// (kv's in-place rule for a one-request batch).
func inPlaceOp(ops []kvOp, i int) bool {
	if ops[i].kind == kvDel {
		return false
	}
	_, present := applyOps(ops, i)[ops[i].key]
	return present
}

// nackedVisible decides whether the nacked op ops[acked] is visible after
// recovery from crash, using seq, the counting run's site kinds in order.
// A crash at an ack boundary comes after the op's durable commit: visible.
// A copy-on-write op crashed anywhere before it is rolled back whole. An
// in-place op has no undo record to roll back with: its new value is one
// word in one line, durable from the moment that line is written back, so
// it is visible exactly when the crash fired after that write-back. The
// write-back is found in the op's own span of seq — the sites after the
// previous op's ack up to its own — which for a one-op in-place FASE holds
// no undo site and exactly one write-back: its drain's line, or, when the
// online policy's one resize shrinks the cache mid-FASE and evicts that
// line first, a flush-line.
func nackedVisible(ops []kvOp, acked int, crash atlas.Crash, seq []atlas.Site) (bool, error) {
	if crash.Site == atlas.SiteAck {
		return true, nil
	}
	if acked >= len(ops) || !inPlaceOp(ops, acked) {
		return false, nil
	}
	start, acks := -1, 0
	for i, k := range seq {
		if acks == acked {
			start = i
			break
		}
		if k == atlas.SiteAck {
			acks++
		}
	}
	if start < 0 {
		return false, fmt.Errorf("the counting run has no span for op %d (%d sites)", acked, len(seq))
	}
	if crash.N < start {
		// The crash fell inside an op already acked, which only an ack
		// before its commit allows: the nacked op never started, and the
		// state check decides whether the acked one survived.
		return false, nil
	}
	writeBack := -1
	for i := start; i < len(seq) && seq[i] != atlas.SiteAck; i++ {
		switch seq[i] {
		case atlas.SiteFlushLine, atlas.SiteDrainLine:
			if writeBack >= 0 {
				return false, fmt.Errorf("in-place op %d writes back at sites %d and %d, want its one value line", acked, writeBack, i)
			}
			writeBack = i
		case atlas.SiteUndoBegin, atlas.SiteUndoRecord, atlas.SiteUndoPublish, atlas.SiteUndoCommit:
			return false, fmt.Errorf("op %d should commit in place but crosses %v at site %d", acked, seq[i], i)
		}
	}
	if writeBack < 0 {
		return false, fmt.Errorf("in-place op %d writes back no line", acked)
	}
	return crash.N > writeBack, nil
}

// recoverAndVerifyKV recovers a crashed heap and checks the service
// contract: every acked op's effect is present with its exact value (no
// acked write lost), the single nacked op is either fully applied or fully
// absent exactly as nackedVisible decides from the counting run's site
// sequence seq (rolled back, unless the crash came after its durable
// commit or, for an in-place op, after its value line's write-back), the
// tree invariants hold, every shard's rebuilt page allocator accounts for
// each page exactly once (free ∪ reachable = everything below its cursor),
// the heap is self-consistent, and no dirty lines remain once the recovered
// store closes.
func recoverAndVerifyKV(o KVOptions, h *pmem.Heap, ops []kvOp, acked int, crash atlas.Crash, seq []atlas.Site) (checks int, rrep atlas.RecoveryReport, err error) {
	st, rrep, err := kv.Recover(h, o.storeOptions(nil))
	if err != nil {
		return 0, rrep, err
	}
	if err := st.CheckInvariants(); err != nil {
		return checks, rrep, err
	}
	checks++
	if err := st.CheckPages(); err != nil {
		return checks, rrep, err
	}
	checks++
	visible := acked
	if acked < len(ops) {
		applied, err := nackedVisible(ops, acked, crash, seq)
		if err != nil {
			return checks, rrep, err
		}
		if applied {
			// Visible exactly once, untorn.
			visible = acked + 1
		}
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
	counter := newRecording()
	_, acked, err := kvSeqRun(o, ops, counter)
	if err != nil {
		return Report{}, fmt.Errorf("faultinject: counting run: %w", err)
	}
	if acked != len(ops) {
		return Report{}, fmt.Errorf("faultinject: counting run acked %d/%d ops", acked, len(ops))
	}
	rep := Report{Sites: counter.Sites(), Kinds: counter.Kinds()}
	seq := counter.Sequence()
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
		checks, rrep, err := recoverAndVerifyKV(o, h, ops, acked, crash, seq)
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
func genCrashedKVHeap(o KVOptions, ops []kvOp, servingSite int) (*pmem.Heap, int, atlas.Crash, error) {
	inj := NewArmed(servingSite)
	h, acked, err := kvSeqRun(o, ops, inj)
	if !errors.Is(err, errInjected) {
		if err != nil {
			return nil, 0, atlas.Crash{}, err
		}
		return nil, 0, atlas.Crash{}, fmt.Errorf("serving site %d never fired", servingSite)
	}
	crash, _ := inj.Fired()
	return h, acked, crash, nil
}

// countRecovery enumerates the boundaries kv.Recover crosses repairing h,
// which it repairs. The injector is disabled again before the recovered
// store is closed, so the enumeration covers exactly the Recover window.
func countRecovery(o KVOptions, h *pmem.Heap) (*Injector, error) {
	rcount := NewCounting()
	rcount.Enable()
	st, _, err := kv.Recover(h, o.storeOptions(rcount))
	rcount.Disable()
	if err != nil {
		return nil, fmt.Errorf("counting recovery: %w", err)
	}
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("close after counting recovery: %w", err)
	}
	return rcount, nil
}

// cutRecovery crashes kv.Recover of h at its recovery site number site (of
// sites), which must fire and leave the heap quiesced behind ErrCrashed.
func cutRecovery(o KVOptions, h *pmem.Heap, site, sites int) (atlas.Crash, error) {
	rinj := NewArmed(site)
	rinj.Enable()
	_, _, err := kv.Recover(h, o.storeOptions(rinj))
	rinj.Disable()
	rcrash, fired := rinj.Fired()
	if !errors.Is(err, kv.ErrCrashed) || !fired {
		return rcrash, fmt.Errorf("recovery site %d of %d did not crash the recovery (err %v, fired %v); recovery not deterministic?",
			site, sites, err, fired)
	}
	return rcrash, nil
}

// ExploreKVRecovery crashes the recovery itself. Every serving site of the
// deterministic workload is a crash shape; for each, it enumerates the
// persistence boundaries kv.Recover crosses while repairing that heap (the
// undo rollback of each FASE left open), then, per boundary, regenerates
// the identical crashed heap, cuts the recovery at exactly that point
// (kv.Recover must return ErrCrashed with the heap quiesced), and proves
// idempotence: a second, clean Recover must converge to the exact expected
// state, same as if the first recovery had never been interrupted. Shapes
// whose recovery crosses no boundary (the crash left no FASE open) have
// nothing to cut and are skipped; the sweep fails if every shape is.
func ExploreKVRecovery(o KVOptions) (Report, error) {
	o = o.withDefaults()
	ops := exhaustiveOps(o)
	counter := newRecording()
	if _, acked, err := kvSeqRun(o, ops, counter); err != nil {
		return Report{}, fmt.Errorf("faultinject: counting run: %w", err)
	} else if acked != len(ops) {
		return Report{}, fmt.Errorf("faultinject: counting run acked %d/%d ops", acked, len(ops))
	}
	serving, seq := counter.Sites(), counter.Sequence()
	rep := Report{Kinds: make(map[atlas.Site]int)}
	for s := 0; s < serving; s++ {
		h, acked, crash, err := genCrashedKVHeap(o, ops, s)
		if err != nil {
			return rep, fmt.Errorf("faultinject: serving shape %d: %w", s, err)
		}
		rcount, err := countRecovery(o, h)
		if err != nil {
			return rep, fmt.Errorf("faultinject: shape %d: %w", s, err)
		}
		rsites := rcount.Sites()
		if rsites == 0 {
			continue
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
			rcrash, err := cutRecovery(o, h, site, rsites)
			if err != nil {
				return rep, fmt.Errorf("faultinject: shape %d: %w", s, err)
			}
			// Second, clean recovery of the twice-crashed heap: the exact
			// acked-state oracle still decides, against the original serving
			// crash's ack-boundary semantics.
			checks, rrep, err := recoverAndVerifyKV(o, h, ops, acked, crash, seq)
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
	if rep.Runs == 0 {
		return rep, fmt.Errorf("faultinject: recovery crossed no boundaries in any of %d serving shapes", serving)
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
					// successor.
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
		if err := st.CheckPages(); err != nil {
			return checks, rrep, err
		}
		checks++
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
