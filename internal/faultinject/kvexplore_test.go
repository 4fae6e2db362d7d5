package faultinject

import (
	"fmt"
	"testing"
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
//
// The second input puts the online policy's one adaptation inside the
// sweep: a 29-word sampling burst ends inside a copy-on-write FASE, and
// with the knee search capped at two lines the cache shrinks there from
// its default 8 while it holds three of the FASE's lines. The line it
// evicts is not stored to again, so its one write-back is the shrink's
// flush-line site: a shrink that dropped its evictions loses that FASE's
// page and fails the sweep.
func TestExploreKVExhaustive(t *testing.T) {
	shrinking := DefaultKVOptions()
	shrinking.Config.BurstLength = 29
	shrinking.Config.Knee.MaxSize = 2
	for _, o := range []KVOptions{DefaultKVOptions(), shrinking} {
		if testing.Short() {
			// Still exhaustive — every enumerated site is explored — over a
			// slightly smaller op sequence so -race CI stays fast.
			o.Ops, o.Keys = 7, 3
		}
		name := fmt.Sprintf("burst %d", o.Config.BurstLength)
		rep, err := ExploreKV(o)
		if err != nil {
			t.Fatalf("%s: ExploreKV: %v\nreport: %v", name, err, rep)
		}
		if rep.Crashes != rep.Sites || rep.Missed != 0 {
			t.Errorf("%s: sweep not exhaustive: %v", name, rep)
		}
		ops, inPlace := exhaustiveOps(o), 0
		for i := range ops {
			if inPlaceOp(ops, i) {
				inPlace++
			}
		}
		cow := o.Ops - inPlace
		if inPlace == 0 || cow == 0 {
			t.Fatalf("%s: workload has %d in-place and %d copy-on-write ops; the sweep needs both", name, inPlace, cow)
		}
		for _, k := range []Kind{KindDrainDone, KindAck} {
			if rep.Kinds[k] != o.Ops {
				t.Errorf("%s: %d %v sites for %d single-op FASEs: %v", name, rep.Kinds[k], k, o.Ops, rep)
			}
		}
		for _, k := range []Kind{KindUndoBegin, KindUndoCommit} {
			if rep.Kinds[k] != cow {
				t.Errorf("%s: %d %v sites, want 1 per copy-on-write FASE (%d): %v", name, rep.Kinds[k], k, cow, rep)
			}
		}
		for _, k := range []Kind{KindUndoRecord, KindUndoPublish} {
			if rep.Kinds[k] != 2*cow {
				t.Errorf("%s: %d %v sites, want 2 per copy-on-write FASE (root and generation): %v", name, rep.Kinds[k], k, rep)
			}
		}
		// A copy-on-write FASE writes back at least its leaf's line and the
		// meta line, an in-place one exactly its value line: at the drain,
		// or earlier if the cache evicts it.
		if wb := rep.Kinds[KindDrainLine] + rep.Kinds[KindFlushLine]; wb < 2*cow+inPlace {
			t.Errorf("%s: %d write-back sites for %d copy-on-write and %d in-place FASEs: %v",
				name, wb, cow, inPlace, rep)
		}
		if o.Config.BurstLength == shrinking.Config.BurstLength && rep.Kinds[KindFlushLine] == 0 {
			t.Errorf("%s: no flush-line sites: the cache never shrank below a FASE's lines: %v", name, rep)
		}
		t.Logf("%s: %v", name, rep)
	}
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
