package kv

// absorb.go is the logical write-absorption layer in front of group
// commit. The paper combines writes at cache-line granularity inside the
// software cache; absorption lifts the same idea one level up, to whole
// operations: self-canceling logical ops — a later PUT or DELETE of a key
// already written in the pending batch, increment/decrement pairs — are
// collapsed *before* they reach the persistence stack, so the B+-tree pays
// one root-to-leaf copy for the net effect instead of one per op.
//
// Two mechanisms compose:
//
//   - Same-key coalescing: the batch planner simulates the batch's
//     requests serially against the committed tree, records each
//     requester's exact serial result (a DELETE's found bit, a counter's
//     post-op value), and emits only the net write per touched key. A key
//     whose final simulated state equals its tree state emits nothing at
//     all — a provably net-null pair (PUT then DELETE of an absent key,
//     INCR then DECR) never enters a FASE.
//
//   - Counter accumulation: INCR/DECR requests do not force a commit of
//     their own. Their net deltas are held in a volatile per-shard
//     vector–scalar accumulator (the per-key delta vector plus the parked
//     requesters), and the net effect is committed through the normal
//     undo-logged FASE path only once the parked-op count crosses
//     Threshold or the oldest parked op crosses Deadline. Requesters are
//     acked only at that commit — an acked counter op is durable across
//     any crash, exactly like a PUT, and a parked one is nacked by a crash
//     with nothing on the heap to roll forward.
//
// Crash semantics are exact by construction: the accumulator lives only in
// DRAM, its commit is an ordinary FASE (undo-logged, rolled back whole by
// Recover), and the four absorption boundaries (merge, threshold commit,
// deadline commit, absorb ack) are numbered fault-injection sites swept
// exhaustively by internal/faultinject.

import (
	"time"
)

// AbsorbConfig configures the absorption layer. The zero value disables
// it; with absorption off, every request is applied individually inside
// its batch's FASE (the pre-absorption behavior), and INCR/DECR commit
// immediately like PUTs.
type AbsorbConfig struct {
	// Enabled turns on same-key batch coalescing and the counter
	// accumulator.
	Enabled bool
	// Threshold is the parked counter-op count that forces an accumulator
	// commit. <=0 takes the default (64).
	Threshold int
	// Deadline bounds how long a counter op may stay parked (and so how
	// long its ack may be deferred) before the accumulator commits. <=0
	// takes defaultAbsorbDeadline. The adaptive controller retargets it at
	// runtime.
	Deadline time.Duration
}

// defaultAbsorbDeadline is the park bound when AbsorbConfig.Deadline is
// unset: long enough for a burst of counter ops to coalesce, short enough
// that a lone deferred ack stays in the low milliseconds.
const defaultAbsorbDeadline = 2 * time.Millisecond

func (c AbsorbConfig) withDefaults() AbsorbConfig {
	if c.Threshold <= 0 {
		c.Threshold = 64
	}
	if c.Deadline <= 0 {
		c.Deadline = defaultAbsorbDeadline
	}
	return c
}

// AbsorbOp names an absorption boundary, in the order the layer crosses
// them. Options.AbsorbHook receives each crossing; internal/faultinject
// numbers them as crash-exploration sites.
type AbsorbOp uint8

const (
	// AbsorbMerge is one counter op folding into the accumulator (or into
	// its batch's net write): volatile-only, nothing durable yet.
	AbsorbMerge AbsorbOp = iota
	// AbsorbThresholdCommit fires when the parked-op count crosses
	// Threshold, before the net-delta FASE begins.
	AbsorbThresholdCommit
	// AbsorbDeadlineCommit fires when the oldest parked op crosses
	// Deadline (or at graceful shutdown), before the net-delta FASE.
	AbsorbDeadlineCommit
	// AbsorbAck sits between the accumulator commit's durability and the
	// delivery of the parked acks — a crash here loses acks, never data.
	AbsorbAck
)

// accumulator is the per-shard vector–scalar accumulator: the pending net
// delta per key (volatile), the counter requests those deltas belong to,
// and each request's precomputed serial result. Writer-goroutine-owned.
type accumulator struct {
	deltas  map[uint64]uint64 // key → net pending delta (wrapping)
	order   []uint64          // keys in first-merge order (deterministic commits)
	parked  []request         // counter requests awaiting the next commit
	results []Result          // serial results, index-aligned with parked
	opened  time.Time         // arrival of the oldest parked op
}

func (a *accumulator) pending() int { return len(a.parked) }

func (a *accumulator) reset() {
	a.deltas = nil
	a.order = a.order[:0]
	a.parked = nil
	a.results = nil
}

// park holds one counter request (and its precomputed result) until the
// next accumulator commit.
func (a *accumulator) park(r request, res Result, d uint64) {
	if a.deltas == nil {
		a.deltas = make(map[uint64]uint64, 8)
	}
	if len(a.parked) == 0 {
		a.opened = time.Now()
	}
	if _, ok := a.deltas[r.k]; !ok {
		a.order = append(a.order, r.k)
	}
	a.deltas[r.k] += d
	a.parked = append(a.parked, r)
	a.results = append(a.results, res)
}

// netWrite is one physical operation an absorbed commit applies: the net
// effect of every logical op that touched the key.
type netWrite struct {
	del  bool
	k, v uint64
}

// commitPlan is one planned commit under absorption: the requests it acks
// (batch requests plus, when folding, every parked counter request), their
// precomputed serial results, and the net writes the FASE applies. A plan
// with no writes delivers its acks without a FASE — the absorbed ops are
// provably net-null, so there is nothing to persist.
type commitPlan struct {
	acks    []request
	results []Result
	writes  []netWrite
	// fold reports that parked counter ops are acked by this commit (the
	// AbsorbAck boundary applies).
	fold bool
	// trigger is the hook fired before the FASE begins: threshold or
	// deadline commits announce themselves; conflict folds (a batch write
	// touching a key with pending deltas) ride the batch's own commit.
	trigger AbsorbOp
	hasTrig bool
}

// absorbed returns how many acked logical ops were absorbed (folded away
// without a physical write of their own).
func (p *commitPlan) absorbed() int { return len(p.acks) - len(p.writes) }

func (sh *shard) absorbOn() bool { return sh.st.opts.Absorb.Enabled }

func (sh *shard) absorbHook(op AbsorbOp) {
	if h := sh.st.opts.AbsorbHook; h != nil {
		h(op)
	}
}

// absorbDue reports whether the accumulator's deadline has passed (the
// run-loop timer and the planner both consult it).
func (sh *shard) absorbDue() bool {
	return sh.acc.pending() > 0 &&
		time.Since(sh.acc.opened) >= time.Duration(sh.absorbDeadlineNs.Load())
}

// simState is one key's simulated value during batch planning: the state
// the serial execution of (parked deltas, then the batch's requests so
// far) would leave the key in.
type simState struct {
	present bool
	val     uint64
	// written marks the key as touched by a PUT/DEL of this batch (or a
	// counter op ordered after one): its net write belongs to this commit.
	written bool
}

// planCommit simulates batch serially and builds the commit plan. Counter
// ops whose key the batch does not write are parked (merged into the
// accumulator, result precomputed, ack deferred); everything else acks
// with this commit. The accumulator folds into the plan — its parked
// requests join the acks and its net deltas the writes — when a batch
// write conflicts with a pending delta, when the parked count crosses
// Threshold, when the deadline has passed, or when force is set (graceful
// shutdown). Writer goroutine only; may panic through AbsorbHook (an
// injected crash), which the caller recovers.
func (sh *shard) planCommit(batch []request, force bool) *commitPlan {
	plan := &commitPlan{}
	sim := make(map[uint64]simState, len(batch))
	var touched []uint64 // batch-written keys, first-touch order
	conflict := false

	// look returns k's simulated state, seeding it from the committed
	// tree plus any pending delta (parked ops are ordered before the
	// batch, so their effect is visible to it).
	look := func(k uint64) simState {
		if s, ok := sim[k]; ok {
			return s
		}
		v, ok := sh.db.Get(k)
		s := simState{present: ok, val: v}
		if d, pend := sh.acc.deltas[k]; pend {
			s.present = true
			s.val = v + d
		}
		sim[k] = s
		return s
	}

	for i := range batch {
		r := batch[i]
		switch r.op {
		case OpPut:
			s := look(r.k)
			if _, pend := sh.acc.deltas[r.k]; pend {
				conflict = true
			}
			if !s.written {
				touched = append(touched, r.k)
			}
			sim[r.k] = simState{present: true, val: r.v, written: true}
			plan.acks = append(plan.acks, r)
			plan.results = append(plan.results, Result{})
		case OpDel:
			s := look(r.k)
			if _, pend := sh.acc.deltas[r.k]; pend {
				conflict = true
			}
			if !s.written {
				touched = append(touched, r.k)
			}
			sim[r.k] = simState{written: true}
			plan.acks = append(plan.acks, r)
			plan.results = append(plan.results, Result{Found: s.present})
		case opPuts:
			// A batched put is its pairs applied in order: each pair
			// coalesces exactly as a lone PUT would, but the request acks
			// once, for the whole slice.
			for _, p := range r.pairs {
				s := look(p.K)
				if _, pend := sh.acc.deltas[p.K]; pend {
					conflict = true
				}
				if !s.written {
					touched = append(touched, p.K)
				}
				sim[p.K] = simState{present: true, val: p.V, written: true}
			}
			plan.acks = append(plan.acks, r)
			plan.results = append(plan.results, Result{})
		case OpIncr, OpDecr:
			sh.absorbHook(AbsorbMerge)
			d := r.v
			if r.op == OpDecr {
				d = -d
			}
			s := look(r.k)
			nv := s.val + d
			if !s.present {
				nv = d
			}
			res := Result{Val: nv}
			if s.written {
				// Ordered after a write of this batch: the counter op
				// commits (and acks) with the batch, folded into the
				// key's net write.
				sim[r.k] = simState{present: true, val: nv, written: true}
				plan.acks = append(plan.acks, r)
				plan.results = append(plan.results, res)
			} else {
				sim[r.k] = simState{present: true, val: nv}
				sh.acc.park(r, res, d)
			}
		}
	}

	fold := force || conflict || sh.absorbDue() ||
		sh.acc.pending() >= int(sh.absorbThreshold.Load())
	if fold && sh.acc.pending() > 0 {
		switch {
		case conflict || force:
			// The fold rides a commit that was happening anyway (or the
			// shutdown drain); no trigger boundary of its own. Shutdown
			// drains reuse the deadline boundary below when forced with an
			// empty batch.
			if force && len(batch) == 0 {
				plan.trigger, plan.hasTrig = AbsorbDeadlineCommit, true
				sh.absorbDeadlineC.Add(1)
			}
		case sh.acc.pending() >= int(sh.absorbThreshold.Load()):
			plan.trigger, plan.hasTrig = AbsorbThresholdCommit, true
			sh.absorbThresholdC.Add(1)
		default:
			plan.trigger, plan.hasTrig = AbsorbDeadlineCommit, true
			sh.absorbDeadlineC.Add(1)
		}
		plan.fold = true
		// Accumulator keys are written first (their ops arrived first),
		// then the batch's keys; conflicting keys keep their accumulator
		// position. The parked requesters ack with this commit. Keys parked
		// by earlier batches may not be in sim yet — materialize them
		// before the accumulator (look's delta source) resets.
		for _, k := range sh.acc.order {
			look(k)
		}
		keys := append(append([]uint64(nil), sh.acc.order...), touched...)
		touched = keys
		plan.acks = append(plan.acks, sh.acc.parked...)
		plan.results = append(plan.results, sh.acc.results...)
		sh.acc.reset()
	}

	seen := make(map[uint64]bool, len(touched))
	for _, k := range touched {
		if seen[k] {
			continue
		}
		seen[k] = true
		s := look(k)
		tv, tok := sh.db.Get(k)
		switch {
		case s.present && (!tok || tv != s.val):
			plan.writes = append(plan.writes, netWrite{k: k, v: s.val})
		case !s.present && tok:
			plan.writes = append(plan.writes, netWrite{del: true, k: k})
		}
		// Final state equal to the tree state: the key's ops are net-null
		// and absorb completely.
	}
	return plan
}

// nackParked fails every parked counter request (crash path: the store is
// dying and their deltas were never committed). No-op when nothing is
// parked; the graceful Close path drains the accumulator first.
func (sh *shard) nackParked(err error) {
	if sh.acc.pending() == 0 {
		return
	}
	nackAll(sh.acc.parked, err)
	sh.acc.reset()
}

// drainAbsorb commits any parked counter deltas (graceful-shutdown path);
// it reports whether the store crashed during the drain.
func (sh *shard) drainAbsorb() (crashed bool) {
	if !sh.absorbOn() || sh.acc.pending() == 0 {
		return false
	}
	return sh.commitBatch(nil)
}

// finishAbsorbed completes a plan with no physical writes: every acked op
// absorbed into nothing (net-null), so there is no FASE — the acks are
// delivered once the in-flight predecessor (if any) has settled, crossing
// the same ack boundaries a committed batch would.
func (sh *shard) finishAbsorbed(plan *commitPlan) (crashed bool) {
	if len(plan.acks) == 0 {
		return false
	}
	if sh.settle() {
		nackAll(plan.acks, ErrCrashed)
		return true
	}
	if sh.st.crashing.Load() {
		nackAll(plan.acks, ErrCrashed)
		return true
	}
	crash := func(fn func()) bool {
		if sh.crashedDuring(fn) {
			sh.st.initiateCrash(sh)
			nackAll(plan.acks, ErrCrashed)
			return true
		}
		return false
	}
	if hook := sh.st.opts.AckHook; hook != nil {
		if crash(func() { hook(sh.id) }) {
			return true
		}
	}
	if plan.fold {
		if crash(func() { sh.absorbHook(AbsorbAck) }) {
			return true
		}
	}
	logical := uint64(logicalOps(plan.acks))
	sh.noteOps(plan.acks)
	sh.batchedOps.Add(logical)
	sh.absorbed.Add(logical)
	ackAll(plan.acks, plan.results)
	return false
}
