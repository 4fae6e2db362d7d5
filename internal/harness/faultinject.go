package harness

import (
	"fmt"
	"sort"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/faultinject"
)

// CrashExplorationResult is the crash-point exploration experiment: the
// exhaustive sweeps over the atlas runtime (one per policy) and the kv
// group-commit service, plus one seeded randomized concurrent sweep. It is
// not a figure from the paper — it is the evidence that the artifact keeps
// the paper's failure-atomicity promise at every persistence boundary.
type CrashExplorationResult struct {
	// AtlasPolicies pairs each explored policy with its sweep.
	AtlasPolicies []core.PolicyKind
	Atlas         []faultinject.Report
	// KV is the exhaustive sweep of the sharded group-commit store.
	KV faultinject.Report
	// Random is the seeded concurrent sweep (kv only).
	Random faultinject.Report
}

// CrashExploration runs all sweeps. Any invariant violation is returned as
// an error: there is no partial credit for crash consistency.
func CrashExploration(randomRuns int) (*CrashExplorationResult, error) {
	res := &CrashExplorationResult{}
	for _, kind := range []core.PolicyKind{core.Eager, core.Lazy, core.AtlasTable, core.SoftCacheOnline} {
		opt := faultinject.DefaultAtlasOptions()
		opt.Policy = kind
		rep, err := faultinject.ExploreAtlas(opt)
		if err != nil {
			return nil, fmt.Errorf("atlas/%v: %w", kind, err)
		}
		res.AtlasPolicies = append(res.AtlasPolicies, kind)
		res.Atlas = append(res.Atlas, rep)
	}
	kvRep, err := faultinject.ExploreKV(faultinject.DefaultKVOptions())
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	res.KV = kvRep
	ro := faultinject.DefaultKVOptions()
	if randomRuns > 0 {
		ro.Runs = randomRuns
	}
	randRep, err := faultinject.ExploreKVRandom(ro)
	if err != nil {
		return nil, fmt.Errorf("kv randomized: %w", err)
	}
	res.Random = randRep
	return res, nil
}

// Table renders one row per sweep.
func (r *CrashExplorationResult) Table() *Table {
	t := &Table{
		Title:   "Crash-point exploration: injected power failures and recovery invariants",
		Headers: []string{"sweep", "sites", "runs", "crashed", "missed", "checks", "rolled back", "words restored"},
	}
	row := func(name string, rep faultinject.Report) {
		t.AddRow(name,
			fmt.Sprint(rep.Sites), fmt.Sprint(rep.Runs), fmt.Sprint(rep.Crashes),
			fmt.Sprint(rep.Missed), fmt.Sprint(rep.Checks),
			fmt.Sprint(rep.FASEsRolledBack), fmt.Sprint(rep.WordsRestored))
	}
	total := faultinject.Report{}
	for i, rep := range r.Atlas {
		row("atlas/"+r.AtlasPolicies[i].String(), rep)
		total = merged(total, rep)
	}
	row("kv exhaustive", r.KV)
	total = merged(total, r.KV)
	row(fmt.Sprintf("kv randomized (seed %d)", r.Random.Seed), r.Random)
	total = merged(total, r.Random)
	row("total", total)
	kinds := make([]atlas.Site, 0, len(total.Kinds))
	for k := range total.Kinds {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	census := "sites by boundary kind:"
	for _, k := range kinds {
		census += fmt.Sprintf(" %s=%d", k, total.Kinds[k])
	}
	t.Notes = append(t.Notes, census,
		"every crashed run recovered and passed all invariants; missed runs are concurrent schedules that never reached their armed site")
	return t
}

// merged is Report.merge as a pure function (keeps the zero total usable).
func merged(a, b faultinject.Report) faultinject.Report {
	out := a
	out.Kinds = make(map[atlas.Site]int, len(a.Kinds)+len(b.Kinds))
	for k, n := range a.Kinds {
		out.Kinds[k] = n
	}
	out.Sites += b.Sites
	out.Runs += b.Runs
	out.Crashes += b.Crashes
	out.Missed += b.Missed
	out.Checks += b.Checks
	out.FASEsRolledBack += b.FASEsRolledBack
	out.WordsRestored += b.WordsRestored
	for k, n := range b.Kinds {
		out.Kinds[k] += n
	}
	return out
}
