package faultinject

import (
	"testing"
	"time"
)

// TestExploreKVExhaustive is the acceptance property for the whole
// subsystem: every injection site the kv group-commit workload enumerates
// is crashed at and recovered from, and every recovery satisfies the
// service contract (acked writes durable with exact values, the nacked op
// rolled back — or, for ack-boundary crashes, committed untorn — tree
// invariants, heap consistency, empty dirty state). The census is pinned
// per operation: each op commits alone and crosses one drain barrier and
// one ack. A copy-on-write op's FASE logs exactly two words (the tree's
// root and generation — its pages are private and unlogged), so it adds
// one begin and one commit; an in-place op (a put or counter op of a
// present key) logs nothing and writes back only its value line. The
// durable view changes only at line write-backs and log write-throughs,
// and each of those is a numbered site.
func TestExploreKVExhaustive(t *testing.T) {
	o := DefaultKVOptions()
	if testing.Short() {
		// Still exhaustive — every enumerated site is explored — over a
		// slightly smaller op sequence so -race CI stays fast.
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV: %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	ops, inPlace := exhaustiveOps(o), 0
	for i := range ops {
		if inPlaceOp(o, ops, i) {
			inPlace++
		}
	}
	cow := o.Ops - inPlace
	if inPlace == 0 || cow == 0 {
		t.Fatalf("workload has %d in-place and %d copy-on-write ops; the sweep needs both", inPlace, cow)
	}
	for _, k := range []Kind{KindDrainDone, KindAck} {
		if rep.Kinds[k] != o.Ops {
			t.Errorf("%d %v sites for %d single-op FASEs: %v", rep.Kinds[k], k, o.Ops, rep)
		}
	}
	for _, k := range []Kind{KindUndoBegin, KindUndoCommit} {
		if rep.Kinds[k] != cow {
			t.Errorf("%d %v sites, want 1 per copy-on-write FASE (%d): %v", rep.Kinds[k], k, cow, rep)
		}
	}
	for _, k := range []Kind{KindUndoRecord, KindUndoPublish} {
		if rep.Kinds[k] != 2*cow {
			t.Errorf("%d %v sites, want 2 per copy-on-write FASE (root and generation): %v", rep.Kinds[k], k, rep)
		}
	}
	// A copy-on-write FASE writes back at least its leaf's line and the
	// meta line, an in-place one exactly its value line.
	if rep.Kinds[KindDrainLine] < 2*cow+inPlace {
		t.Errorf("%d drain-line sites for %d copy-on-write and %d in-place FASEs: %v",
			rep.Kinds[KindDrainLine], cow, inPlace, rep)
	}
	t.Logf("%v", rep)
}

// TestExploreKVAbsorbThreshold is the exhaustive sweep for the logical
// write-absorption layer in its threshold shape: AbsorbThreshold=1 folds
// every counter op of the workload into its own net-delta commit, so the
// site space gains the merge, threshold-commit and absorb-ack boundaries —
// and every one of them, crashed at and recovered from, must lose no acked
// op (an absorb-ack crash commits the nacked op untorn, like an ack
// crash; a merge crash leaves nothing durable).
func TestExploreKVAbsorbThreshold(t *testing.T) {
	o := DefaultKVOptions()
	o.Absorb = true
	o.AbsorbThreshold = 1
	o.AbsorbDeadline = time.Second
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(absorb, threshold): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	for _, k := range []Kind{KindAbsorbMerge, KindAbsorbThreshold, KindAbsorbAck,
		KindUndoRecord, KindDrainLine, KindAck} {
		if rep.Kinds[k] == 0 {
			t.Errorf("no %v sites in the absorbed group-commit path: %v", k, rep)
		}
	}
	t.Logf("%v", rep)
}

// TestExploreKVAbsorbDeadline is the same sweep in the deadline shape: an
// unreachable threshold parks every counter op in the accumulator until
// the shard's deadline timer forces the net-delta commit, so the deferred
// ack path — park, timer wakeup, deadline-commit boundary, FASE, absorb
// ack — is what gets crashed at. The enumeration stays deterministic even
// if a slow run folds at plan time instead of at the timer: both paths
// cross the same boundary sequence.
func TestExploreKVAbsorbDeadline(t *testing.T) {
	o := DefaultKVOptions()
	o.Absorb = true
	o.AbsorbThreshold = 1 << 20
	o.AbsorbDeadline = 300 * time.Microsecond
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(absorb, deadline): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	for _, k := range []Kind{KindAbsorbMerge, KindAbsorbDeadline, KindAbsorbAck} {
		if rep.Kinds[k] == 0 {
			t.Errorf("no %v sites in the deadline-absorbed path: %v", k, rep)
		}
	}
	if rep.Kinds[KindAbsorbThreshold] != 0 {
		t.Errorf("threshold commits with an unreachable threshold: %v", rep)
	}
	t.Logf("%v", rep)
}

// TestExploreKVRandomAbsorb runs the seeded concurrent mode with
// absorption enabled: concurrent clients mixing puts and private-key
// increments, a small threshold and a short deadline so both commit
// triggers fire under load, crashes landing anywhere in the combined site
// space — every recovered state must satisfy the per-key prefix invariant
// for puts and counters alike.
func TestExploreKVRandomAbsorb(t *testing.T) {
	o := DefaultKVOptions()
	o.Absorb = true
	o.AbsorbThreshold = 2
	o.AbsorbDeadline = 200 * time.Microsecond
	o.Runs = 8
	if testing.Short() {
		o.Runs = 3
	}
	rep, err := ExploreKVRandom(o)
	if err != nil {
		t.Fatalf("ExploreKVRandom(absorb) (reproduce with -faultinject.seed=%d): %v\nreport: %v", rep.Seed, err, rep)
	}
	if rep.Runs != o.Runs || rep.Crashes+rep.Missed != rep.Runs {
		t.Errorf("run accounting broken: %v", rep)
	}
	t.Logf("%v", rep)
}

// TestExploreKVCatchesDroppedDrains is the kv-level negative control: the
// flush-after-ack double must make some crash run's recovery fail the
// service contract.
func TestExploreKVCatchesDroppedDrains(t *testing.T) {
	o := DefaultKVOptions()
	o.Ops, o.Keys = 6, 2
	o.Middleware = DropDrains
	rep, err := ExploreKV(o)
	if err == nil {
		t.Fatalf("dropped drains went undetected: %v", rep)
	}
	t.Logf("caught as expected: %v", err)
}

// TestExploreKVRandom runs the seeded concurrent mode: schedules and crash
// sites drawn from one PCG stream (-faultinject.seed to override), misses
// allowed and tallied, every run verified.
func TestExploreKVRandom(t *testing.T) {
	o := DefaultKVOptions()
	o.Runs = 8
	if testing.Short() {
		o.Runs = 3
	}
	rep, err := ExploreKVRandom(o)
	if err != nil {
		t.Fatalf("ExploreKVRandom (reproduce with -faultinject.seed=%d): %v\nreport: %v", rep.Seed, err, rep)
	}
	if rep.Runs != o.Runs || rep.Crashes+rep.Missed != rep.Runs {
		t.Errorf("run accounting broken: %v", rep)
	}
	t.Logf("%v", rep)
}

// TestExploreKVResize sweeps the resize-at-FASE-end seam: capacity requests
// cycling shrink→grow→shrink are published between ops and applied at the
// next FASE end before its drain, so the shrink's forced evictions are
// enumerated as ordinary write-back sites. A crash at any of them — mid-
// resize, with part of the evicted set persisted — must lose no acked write.
func TestExploreKVResize(t *testing.T) {
	o := DefaultKVOptions()
	o.ResizeEvery = 2
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(resize): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	base, err := ExploreKV(func() KVOptions {
		b := DefaultKVOptions()
		if testing.Short() {
			b.Ops, b.Keys = 7, 3
		}
		return b
	}())
	if err != nil {
		t.Fatalf("ExploreKV(baseline): %v", err)
	}
	// The shrink to capacity 1 forces evictions the static run never pays,
	// so resizing must widen the site space (new DrainLine boundaries).
	if rep.Sites <= base.Sites {
		t.Errorf("resizing enumerated %d sites, static %d — no resize-driven crash sites",
			rep.Sites, base.Sites)
	}
	t.Logf("resize sweep %v vs static %v", rep, base)
}

// TestExploreKVRecovery crashes recovery itself on the default store: for
// every serving crash that leaves a FASE open, every boundary the undo
// rollback crosses gets its own run where kv.Recover is cut at exactly that
// point and a second, clean Recover must still converge to the exact acked
// state. This is the idempotence proof: a machine that loses power again
// while recovering recovers anyway.
func TestExploreKVRecovery(t *testing.T) {
	o := DefaultKVOptions()
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKVRecovery(o)
	if err != nil {
		t.Fatalf("ExploreKVRecovery: %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Runs || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	for _, k := range []Kind{KindRecoverReplay, KindRecoverInstall} {
		if rep.Kinds[k] == 0 {
			t.Errorf("no %v sites in the recovery path: %v", k, rep)
		}
	}
	t.Logf("%v", rep)
}
