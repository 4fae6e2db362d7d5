package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the file the driver reads; the declarations in
// metrics.go and main.go must say the same.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bj.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the code {%s %s}", i, got, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, decl []declared, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the code %d", len(decl), kind, len(defs))
		}
		for i, d := range defs {
			got := decl[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the code %+v", kind, i, got, d)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s metric %q (unit %q): bad or repeated name, or bad unit", kind, d.name, d.unit)
			}
			seen[d.name] = true
			switch {
			case bounded && (got.Bound == nil || *got.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound must be in (0, 0.25] and the same in both places; code says %v", d.name, d.bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd, true)
	compare("per_layer", bj.PerLayer, perLayer, false)
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", bj.RunSeconds, bj.Paths)
	}
}

var metricLine = regexp.MustCompile(`^metric (\S+) (\S+) = (\S+) (\S+) n=\d+ attempted=\d+ failed=\d+( moves=".+")?$`)

// TestSmoke runs every workload, plain and traced, at smoke scale, and
// checks what the full-scale runs are trusted for: every declared metric is
// printed exactly once with a finite value, the last line is the result
// object, nothing failed, no reply was wrong, no acknowledged write was
// lost, and each trace file's spans add up.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(newConfig(w.name, 1, 1, traced, true, out))
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.correct() || res.failed != 0 || res.attempted < numKeys {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d wrong=%d acked_lost=%d problems=%v",
					w.name, traced, res.correct(), res.attempted, res.failed, res.wrong, res.ackedLost, res.problems)
			}
			var buf bytes.Buffer
			if err := res.print(&buf, defsFor(traced)); err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			printed := map[string]int{}
			for _, line := range lines {
				if m := metricLine.FindStringSubmatch(line); m != nil {
					if m[1] != w.name {
						t.Errorf("line %q names workload %s", line, m[1])
					}
					printed[m[2]]++
				} else if strings.HasPrefix(line, "metric ") {
					t.Errorf("malformed metric line %q", line)
				}
			}
			var last struct {
				Correct   *bool   `json:"correct"`
				Attempted *uint64 `json:"attempted"`
				Failed    *uint64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil || last.Correct == nil || last.Attempted == nil || last.Failed == nil {
				t.Fatalf("%s (traced %v): last line %q is not the result object: %v", w.name, traced, lines[len(lines)-1], err)
			}
			defs := defsFor(traced)
			if len(last.Metrics) != len(defs) || len(printed) != len(defs) {
				t.Errorf("%s (traced %v): %d metrics declared, %d printed, %d in the result object",
					w.name, traced, len(defs), len(printed), len(last.Metrics))
			}
			for _, d := range defs {
				m, ok := last.Metrics[d.name]
				if printed[d.name] != 1 || !ok || m.Value == nil || m.Unit != d.unit ||
					math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
					t.Errorf("%s (traced %v): metric %s printed %d times, in result object: %v", w.name, traced, d.name, printed[d.name], ok)
				}
				if !traced && ok && m.Value != nil && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, *m.Value)
				}
			}
			if traced {
				checkTraceFile(t, filepath.Join(out, "trace_"+w.name+".json"))
			}
		}
	}
}

// checkTraceFile asserts that every window's child spans tile it: their
// durations sum to within 5 % of the root span's.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	roots := map[string]jsonSpan{}
	children := map[string]int64{}
	ladderSpans := 0
	for _, s := range tf.Spans {
		switch {
		case s.Parent != "":
			children[s.Parent] += s.End - s.Start
		case strings.HasPrefix(s.Name, "ladder/"):
			ladderSpans++
		default:
			roots[s.ID] = s
		}
		if s.End < s.Start {
			t.Errorf("%s: span %s ends before it starts", path, s.ID)
		}
	}
	if len(roots) == 0 || len(roots) != tf.WindowsRecorded || ladderSpans < 20 || len(tf.Counters) == 0 {
		t.Fatalf("%s: %d window spans (%d recorded), %d ladder spans, %d counters",
			path, len(roots), tf.WindowsRecorded, ladderSpans, len(tf.Counters))
	}
	for id, root := range roots {
		total := float64(root.End - root.Start)
		if diff := math.Abs(float64(children[id]) - total); diff > 0.05*total {
			t.Errorf("%s: window %s lasts %v ns, its children %v ns", path, id, total, children[id])
		}
	}
}
