package faultinject

import (
	"maps"
	"testing"

	"nvmcache/internal/atlas"
)

// TestExploreKVExhaustive is the acceptance property for the whole
// subsystem: every injection site the kv group-commit workload enumerates
// is crashed at and recovered from, and every recovery satisfies the
// service contract (acked writes durable with exact values, the nacked op
// rolled back — or, for ack-boundary crashes, committed untorn — tree
// invariants, heap consistency, empty dirty state).
//
// The census is pinned exactly, per kind, so a change that moves, adds or
// drops a persistence boundary fails here. Each op commits alone and
// crosses one drain barrier and one ack. A copy-on-write op's FASE logs
// exactly two words (the tree's root and generation — its pages are
// private and unlogged), so it adds one undo begin and commit and two
// records and publishes; an in-place op (a put or counter op of a present
// key) logs nothing and writes back only its value line. The default
// input's 10 ops are 7 copy-on-write and 3 in-place; the -short input's 7
// are 4 and 3.
//
// The second input puts the online policy's one adaptation inside the
// sweep: a 29-word sampling burst ends inside a copy-on-write FASE, and
// with the knee search capped at two lines the cache shrinks there from
// its default 8 while it holds three of the FASE's lines. The line it
// evicts is not stored to again, so its one write-back is the shrink's
// flush-line site: a shrink that dropped its evictions loses that FASE's
// page and fails the sweep. Its census differs from the first input's
// only in where lines are written back.
func TestExploreKVExhaustive(t *testing.T) {
	shrinking := DefaultKVOptions()
	shrinking.Config.BurstLength = 29
	shrinking.Config.Knee.MaxSize = 2
	type census map[atlas.Site]int
	undo := func(c census, cow int) census {
		c[atlas.SiteDrainDone] = cow + 3
		c[atlas.SiteAck] = cow + 3
		c[atlas.SiteUndoBegin], c[atlas.SiteUndoCommit] = cow, cow
		c[atlas.SiteUndoRecord], c[atlas.SiteUndoPublish] = 2*cow, 2*cow
		return c
	}
	cases := []struct {
		name  string
		o     KVOptions
		sites int
		kinds census
	}{
		{"default", DefaultKVOptions(), 86, undo(census{atlas.SiteDrainLine: 24}, 7)},
		{"shrinking", shrinking, 86, undo(census{atlas.SiteFlushLine: 4, atlas.SiteDrainLine: 20}, 7)},
	}
	if testing.Short() {
		// Still exhaustive — every enumerated site is explored — over a
		// slightly smaller op sequence so -race CI stays fast.
		cases[0].sites, cases[0].kinds = 53, undo(census{atlas.SiteDrainLine: 15}, 4)
		cases[1].sites, cases[1].kinds = 53, undo(census{atlas.SiteFlushLine: 1, atlas.SiteDrainLine: 14}, 4)
		for i := range cases {
			cases[i].o.Ops, cases[i].o.Keys = 7, 3
		}
	}
	for _, c := range cases {
		rep, err := ExploreKV(c.o)
		if err != nil {
			t.Fatalf("%s: ExploreKV: %v\nreport: %v", c.name, err, rep)
		}
		if rep.Crashes != rep.Sites || rep.Missed != 0 {
			t.Errorf("%s: sweep not exhaustive: %v", c.name, rep)
		}
		if rep.Sites != c.sites || !maps.Equal(rep.Kinds, map[atlas.Site]int(c.kinds)) {
			t.Errorf("%s: census %v, want %d sites by kind %v", c.name, rep, c.sites, c.kinds)
		}
		t.Logf("%s: %v", c.name, rep)
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
	for _, k := range []atlas.Site{atlas.SiteRecoverReplay, atlas.SiteRecoverInstall} {
		if rep.Kinds[k] == 0 {
			t.Errorf("no %v sites in the recovery path: %v", k, rep)
		}
	}
	t.Logf("%v", rep)
}
