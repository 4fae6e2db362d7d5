package faultinject

import (
	"fmt"
	"sort"
	"strings"

	"nvmcache/internal/atlas"
)

// Report summarizes one exploration sweep: how many crash points the
// counting run enumerated, how many crash runs were executed, and how many
// recovery-invariant checks they passed. A sweep that returns a nil error
// explored everything it set out to with every check passing; the Report
// is evidence of how much that covered.
type Report struct {
	// Sites is the number of injection sites the counting run enumerated.
	Sites int
	// Runs is the number of crash runs executed (one per explored site in
	// exhaustive mode).
	Runs int
	// Crashes counts runs whose armed site actually fired.
	Crashes int
	// Missed counts runs whose armed site was never reached — possible
	// only under randomized concurrent schedules, where batching
	// nondeterminism reshapes the site space run to run. Missed runs still
	// complete and are still verified, just without a crash.
	Missed int
	// Checks is the total number of recovery-invariant checks passed
	// (acked-value lookups, rollback completeness, heap consistency,
	// dirty-state emptiness).
	Checks int
	// FASEsRolledBack and WordsRestored aggregate the recovery work the
	// crash runs triggered, straight from atlas.RecoveryReport.
	FASEsRolledBack int
	WordsRestored   int
	// Kinds is the counting run's census of sites per boundary kind.
	Kinds map[atlas.Site]int
	// Seed is the root seed of a randomized sweep (0 for exhaustive).
	Seed uint64
}

// String renders the sweep on one line plus a kind census.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d sites, %d runs (%d crashed, %d missed), %d checks passed, %d FASEs rolled back (%d words)",
		r.Sites, r.Runs, r.Crashes, r.Missed, r.Checks, r.FASEsRolledBack, r.WordsRestored)
	if r.Seed != 0 {
		fmt.Fprintf(&b, ", seed %d", r.Seed)
	}
	if len(r.Kinds) > 0 {
		kinds := make([]atlas.Site, 0, len(r.Kinds))
		for k := range r.Kinds {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		b.WriteString("\n  sites by kind:")
		for _, k := range kinds {
			fmt.Fprintf(&b, " %s=%d", k, r.Kinds[k])
		}
	}
	return b.String()
}
