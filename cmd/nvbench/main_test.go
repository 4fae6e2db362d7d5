package main

import (
	"os"
	"strings"
	"testing"

	"nvmcache/internal/harness"
)

// TestListExperiments pins the -list surface: every registered experiment
// shows up with a description, and the ids the README advertises exist.
func TestListExperiments(t *testing.T) {
	var b strings.Builder
	listExperiments(&b)
	out := b.String()
	for _, e := range experiments {
		if !strings.Contains(out, e.id) {
			t.Errorf("-list output missing experiment %q", e.id)
		}
		if e.desc == "" {
			t.Errorf("experiment %q has no description", e.id)
		}
	}
	for _, id := range []string{"table1", "figure7", "contention", "faultinject", "all"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %q:\n%s", id, out)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := lookup("table1"); !ok {
		t.Error("lookup(table1) failed")
	}
	if _, ok := lookup("no-such-experiment"); ok {
		t.Error("lookup invented an experiment")
	}
	ids := make(map[string]bool)
	for _, e := range experiments {
		if ids[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		ids[e.id] = true
	}
}

// TestPaperOutputsMatchRecordedResults regenerates the paper's
// reproduction tables at nvbench's defaults and requires each, exactly as
// printed, in the recorded run docs/results-default-scale.txt: a change to
// the store path or a policy that moves any flush ratio, simulated cycle
// count or selected size fails here. The serving defaults (internal/kv) are
// not on these paths.
func TestPaperOutputsMatchRecordedResults(t *testing.T) {
	recorded, err := os.ReadFile("../../docs/results-default-scale.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table2", "table3", "figure4", "sizes"} {
		var out strings.Builder
		c := &runCtx{opt: harness.DefaultRunOptions(), format: "table", w: &out}
		if err := run(c, id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(string(recorded), out.String()) {
			t.Errorf("%s output is not in docs/results-default-scale.txt:\n%s", id, out.String())
		}
	}
}
