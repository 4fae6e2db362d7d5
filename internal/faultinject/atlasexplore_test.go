package faultinject

import (
	"strings"
	"testing"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
)

// TestExploreAtlasAllPolicies crashes the single-threaded atlas workload
// at every enumerated persistence boundary, once per policy, and demands
// the exact-prefix invariant after each recovery. Eager additionally
// proves the flush-line (per-store write-back) boundary is in the site
// space; the buffering policies prove the drain decomposition is.
func TestExploreAtlasAllPolicies(t *testing.T) {
	for _, kind := range []core.PolicyKind{core.Eager, core.Lazy, core.AtlasTable, core.SoftCacheOnline} {
		t.Run(kind.String(), func(t *testing.T) {
			opt := DefaultAtlasOptions()
			opt.Policy = kind
			if testing.Short() {
				opt.FASEs, opt.Words = 3, 4
			}
			rep, err := ExploreAtlas(opt)
			if err != nil {
				t.Fatalf("ExploreAtlas: %v\nreport: %v", err, rep)
			}
			if rep.Sites == 0 || rep.Crashes != rep.Sites || rep.Missed != 0 {
				t.Fatalf("sweep not exhaustive: %v", rep)
			}
			switch kind {
			case core.Eager:
				if rep.Kinds[atlas.SiteFlushLine] == 0 {
					t.Errorf("eager sweep has no flush-line sites: %v", rep)
				}
			default:
				if rep.Kinds[atlas.SiteDrainLine] == 0 {
					t.Errorf("%v sweep has no drain-line sites: %v", kind, rep)
				}
			}
			if rep.Kinds[atlas.SiteUndoRecord] == 0 || rep.Kinds[atlas.SiteUndoCommit] == 0 {
				t.Errorf("undo-log boundaries missing from site space: %v", rep)
			}
			t.Logf("%v", rep)
		})
	}
}

// TestExploreAtlasCatchesDroppedDrains is the engine's negative control: a
// sink double that acknowledges FASE-end drains without performing them
// (commit-before-flush, the classic ordering bug) must be caught by some
// crash site's invariant check. If this test fails, the exploration engine
// is vacuous.
func TestExploreAtlasCatchesDroppedDrains(t *testing.T) {
	opt := DefaultAtlasOptions()
	opt.Middleware = DropDrains
	rep, err := ExploreAtlas(opt)
	if err == nil {
		t.Fatalf("dropped drains went undetected: %v", rep)
	}
	if !strings.Contains(err.Error(), "invariant violated") {
		t.Fatalf("unexpected failure shape (want an invariant violation): %v", err)
	}
	t.Logf("caught as expected: %v", err)
}

// TestExploreAtlasCatchesMisusedPrivateStore is the negative control for
// atlas.Thread.StorePrivate64: the workload's words are reachable from the
// heap root before their FASE begins, so storing them without an undo record
// breaks the contract, and some crash site — one after an eviction or a
// partial drain carried a word to NVRAM — must recover to a state in which
// a rolled-back FASE's word is still there. If this passes silently the
// sweeps could not notice a private store of shared memory anywhere else.
func TestExploreAtlasCatchesMisusedPrivateStore(t *testing.T) {
	opt := DefaultAtlasOptions()
	opt.storeWord = (*atlas.Thread).StorePrivate64
	rep, err := ExploreAtlas(opt)
	if err == nil {
		t.Fatalf("an unlogged store to reachable memory went undetected: %v", rep)
	}
	if !strings.Contains(err.Error(), "invariant violated") || !strings.Contains(err.Error(), "word") {
		t.Fatalf("unexpected failure shape (want a rolled-back word left behind): %v", err)
	}
	t.Logf("caught as expected: %v", err)
}

// TestAtlasEnumerationDeterministic pins the property exhaustive mode
// rests on: two counting runs of the same workload enumerate the same
// boundary sequence.
func TestAtlasEnumerationDeterministic(t *testing.T) {
	opt := DefaultAtlasOptions()
	a, b := NewCounting(), NewCounting()
	if _, _, err := atlasRun(opt, a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := atlasRun(opt, b); err != nil {
		t.Fatal(err)
	}
	if a.Sites() != b.Sites() {
		t.Fatalf("site counts differ across identical runs: %d vs %d", a.Sites(), b.Sites())
	}
	ka, kb := a.Kinds(), b.Kinds()
	for k, n := range ka {
		if kb[k] != n {
			t.Fatalf("kind census differs: %v vs %v", ka, kb)
		}
	}
}
