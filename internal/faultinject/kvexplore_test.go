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
// per operation: each op commits alone, as one FASE that logs exactly two
// words (the tree's root and generation — its pages are private and
// unlogged) and then crosses one begin, commit, drain barrier and ack; the
// durable view changes only at line write-backs and log write-throughs, and
// each of those is a numbered site.
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
	for _, k := range []Kind{KindUndoBegin, KindUndoCommit, KindDrainDone, KindAck} {
		if rep.Kinds[k] != o.Ops {
			t.Errorf("%d %v sites for %d single-op FASEs: %v", rep.Kinds[k], k, o.Ops, rep)
		}
	}
	for _, k := range []Kind{KindUndoRecord, KindUndoPublish} {
		if rep.Kinds[k] != 2*o.Ops {
			t.Errorf("%d %v sites, want 2 per FASE (root and generation): %v", rep.Kinds[k], k, rep)
		}
	}
	// A FASE writes back at least its leaf's line and the meta line.
	if rep.Kinds[KindDrainLine] < 2*o.Ops {
		t.Errorf("%d drain-line sites for %d FASEs: %v", rep.Kinds[KindDrainLine], o.Ops, rep)
	}
	t.Logf("%v", rep)
}

// TestExploreKVPipeline is the acceptance sweep for the overlapped commit
// protocol: with the flush pipeline enabled (publish batch N, apply batch
// N+1, settle), every enumerated site — now including the pipeline
// hand-off, per-batch and epoch boundaries, and the ack boundary that
// moved to settle — is crashed at and recovered from with the full service
// contract intact: no acked write lost, zero dirty lines after recovery.
func TestExploreKVPipeline(t *testing.T) {
	o := DefaultKVOptions()
	o.Pipeline = true
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(pipeline): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	for _, k := range []Kind{KindUndoRecord, KindUndoCommit, KindDrainLine,
		KindPipeEnqueue, KindPipeEpoch, KindAck} {
		if rep.Kinds[k] == 0 {
			t.Errorf("no %v sites in the pipelined group-commit path: %v", k, rep)
		}
	}
	t.Logf("%v", rep)
}

// TestExploreKVRandomPipeline runs the seeded concurrent mode under the
// overlapped protocol: concurrent clients, crashes that can land with one
// batch in flight and its successor mid-FASE (both logs active, rolled
// back newest-first at recovery).
func TestExploreKVRandomPipeline(t *testing.T) {
	o := DefaultKVOptions()
	o.Pipeline = true
	o.Runs = 8
	if testing.Short() {
		o.Runs = 3
	}
	rep, err := ExploreKVRandom(o)
	if err != nil {
		t.Fatalf("ExploreKVRandom(pipeline) (reproduce with -faultinject.seed=%d): %v\nreport: %v", rep.Seed, err, rep)
	}
	if rep.Runs != o.Runs || rep.Crashes+rep.Missed != rep.Runs {
		t.Errorf("run accounting broken: %v", rep)
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

// TestExploreKVAbsorbPipeline stacks absorption on the overlapped commit
// protocol: net-delta FASEs are published and settled like any batch, the
// absorb-ack boundary moves into settle, and every site of the combined
// space holds the service contract.
func TestExploreKVAbsorbPipeline(t *testing.T) {
	o := DefaultKVOptions()
	o.Absorb = true
	o.AbsorbThreshold = 1
	o.AbsorbDeadline = time.Second
	o.Pipeline = true
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(absorb, pipeline): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	for _, k := range []Kind{KindAbsorbMerge, KindAbsorbThreshold, KindAbsorbAck,
		KindPipeEnqueue, KindPipeEpoch, KindAck} {
		if rep.Kinds[k] == 0 {
			t.Errorf("no %v sites in the absorbed pipelined path: %v", k, rep)
		}
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

// TestExploreKVCheckpoint is the exhaustive sweep for the checkpoint
// pipeline: with per-shard checkpoints on and an explicit checkpoint after
// every second op, the site space gains the begin/serialize-page/publish
// seal/log-truncate boundaries (plus the journal-append write-throughs
// riding inside each FASE) — and every one of them, crashed at and
// recovered from, must lose no acked op. A publish crash must fall back to
// the previous image (or full journal replay), a truncate crash must leave
// the head where the older image still covers it.
func TestExploreKVCheckpoint(t *testing.T) {
	o := DefaultKVOptions()
	o.CheckpointEvery = 2
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(checkpoint): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	for _, k := range []Kind{KindCkptBegin, KindCkptPage, KindCkptPublish, KindLogTruncate,
		KindUndoRecord, KindDrainLine, KindAck} {
		if rep.Kinds[k] == 0 {
			t.Errorf("no %v sites in the checkpointed group-commit path: %v", k, rep)
		}
	}
	t.Logf("%v", rep)
}

// TestExploreKVCheckpointPipeline stacks checkpointing on the overlapped
// commit protocol: journal seals ride the pipelined FASEs (and roll back
// newest-first with them), explicit checkpoints land at settled points
// between acked ops, and every site of the combined space holds the
// service contract.
func TestExploreKVCheckpointPipeline(t *testing.T) {
	o := DefaultKVOptions()
	o.CheckpointEvery = 2
	o.Pipeline = true
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(checkpoint, pipeline): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	for _, k := range []Kind{KindCkptBegin, KindCkptPublish, KindLogTruncate,
		KindPipeEnqueue, KindPipeEpoch, KindAck} {
		if rep.Kinds[k] == 0 {
			t.Errorf("no %v sites in the checkpointed pipelined path: %v", k, rep)
		}
	}
	t.Logf("%v", rep)
}

// TestExploreKVRecovery crashes recovery itself: for a spread of serving
// crash shapes, every boundary the recovery crosses — rollbacks, rebuild
// flushes, replay batches, generation installs — gets its own run where
// kv.Recover is cut at exactly that point and a second, clean Recover must
// still converge to the exact acked state. This is the idempotence proof:
// a machine that loses power again while recovering recovers anyway.
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

// TestExploreKVRecoveryPipeline runs the same mid-recovery sweep over
// heaps crashed under the overlapped commit protocol, where recovery may
// find two undo logs live (the published batch and its overlapped
// successor) and must roll both back newest-first before the rebuild.
func TestExploreKVRecoveryPipeline(t *testing.T) {
	o := DefaultKVOptions()
	o.Pipeline = true
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKVRecovery(o)
	if err != nil {
		t.Fatalf("ExploreKVRecovery(pipeline): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Runs || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	t.Logf("%v", rep)
}

// TestExploreKVResizePipeline runs the same resize schedule under the
// overlapped commit protocol, where the FASE-end apply point races (in real
// deployments) a draining predecessor epoch: in the synchronous-pipeline
// enumeration every hand-off and epoch boundary around the resize is
// crashed at and recovered from.
func TestExploreKVResizePipeline(t *testing.T) {
	o := DefaultKVOptions()
	o.ResizeEvery = 2
	o.Pipeline = true
	if testing.Short() {
		o.Ops, o.Keys = 7, 3
	}
	rep, err := ExploreKV(o)
	if err != nil {
		t.Fatalf("ExploreKV(resize, pipeline): %v\nreport: %v", err, rep)
	}
	if rep.Crashes != rep.Sites || rep.Missed != 0 {
		t.Errorf("sweep not exhaustive: %v", rep)
	}
	t.Logf("%v", rep)
}
