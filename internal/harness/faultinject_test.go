package harness

import (
	"strings"
	"testing"
)

func TestCrashExplorationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps run in internal/faultinject; skip the aggregate in -short")
	}
	r, err := CrashExploration(4)
	if err != nil {
		t.Fatalf("CrashExploration: %v", err)
	}
	// The default kv workload enumerates 86 sites: 7 copy-on-write ops at
	// about 11 sites each and 3 in-place overwrites at 3 (DESIGN §4b).
	if r.KV.Sites < 80 || r.KV.Crashes != r.KV.Sites || r.KV.Missed != 0 {
		t.Errorf("kv sweep enumerated %d sites and crashed at %d (%d missed), want >= 80, every one, none",
			r.KV.Sites, r.KV.Crashes, r.KV.Missed)
	}
	if len(r.Atlas) != 4 {
		t.Errorf("expected 4 atlas policy sweeps, got %d", len(r.Atlas))
	}
	tab := r.Table().String()
	for _, want := range []string{"kv exhaustive", "atlas/ER", "total", "sites by boundary kind"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
}
