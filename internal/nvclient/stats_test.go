package nvclient

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"nvmcache/internal/kv"
)

// statsLines renders a STATS reply body the way the server does: shard
// lines, a total line, a stripes line.
func statsLines(stats []kv.ShardStats, stripes string) []string {
	var out []string
	for _, st := range stats {
		out = append(out, st.String())
	}
	out = append(out, kv.Totals(stats).String(), stripes)
	return out
}

func TestParseStatsRoundTrip(t *testing.T) {
	a := kv.ShardStats{Shard: 0, Puts: 10, Deletes: 2, Gets: 30, Scans: 4,
		Batches: 5, CowBatches: 2, BatchedOps: 12, AsyncFlushes: 7, DrainedFlushes: 9,
		Descents: 6, Aborts: 3, Incrs: 1, Decrs: 8}
	b := kv.ShardStats{Shard: 1, Puts: 1, Gets: 2, Batches: 1, BatchedOps: 1}
	lines := statsLines([]kv.ShardStats{a, b},
		"stripes=64 acquired=100 contended=3 contention=0.0300 hot_stripe=5 hot_acquired=40")

	st, err := ParseStats(lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("parsed %d shards, want 2", len(st.Shards))
	}
	checks := map[string]float64{
		"puts": 10, "dels": 2, "gets": 30, "scans": 4, "batches": 5,
		"cow_batches": 2, "ops": 12, "flush_async": 7, "flush_drained": 9, "flushes": 16,
		"descents": 6, "aborts": 3, "incrs": 1, "decrs": 8,
	}
	for k, want := range checks {
		if got := st.Shards[0][k]; got != want {
			t.Errorf("shard 0 %s = %v, want %v", k, got, want)
		}
	}
	if st.Total["puts"] != 11 || st.Total["ops"] != 13 || st.Total["cow_batches"] != 2 {
		t.Fatalf("total puts=%v ops=%v cow_batches=%v, want 11/13/2",
			st.Total["puts"], st.Total["ops"], st.Total["cow_batches"])
	}
	if st.Stripes["contended"] != 3 || st.Stripes["stripes"] != 64 {
		t.Fatalf("stripes parsed %v", st.Stripes)
	}
}

// TestStatsKeysSortedStable asserts the wire schema loadgen diffs against:
// every rendered line's key=value tokens appear in sorted key order, and
// the key set is identical across shard and total lines (so a diff never
// misses a counter because the schema shifted).
func TestStatsKeysSortedStable(t *testing.T) {
	with := kv.ShardStats{Shard: 0, Puts: 1, Aborts: 9, Descents: 2}
	without := kv.ShardStats{Shard: 1}
	keysOf := func(line string) []string {
		fields := strings.Fields(line)[1:] // drop the row id
		keys := make([]string, len(fields))
		for i, f := range fields {
			k, _, ok := strings.Cut(f, "=")
			if !ok {
				t.Fatalf("token %q in %q is not key=value", f, line)
			}
			keys[i] = k
		}
		return keys
	}
	kw, kwo := keysOf(with.String()), keysOf(without.String())
	if !sort.StringsAreSorted(kw) {
		t.Fatalf("keys not sorted: %v", kw)
	}
	if strings.Join(kw, " ") != strings.Join(kwo, " ") {
		t.Fatalf("key set depends on counter values:\n%v\n%v", kw, kwo)
	}
	tot := keysOf(kv.Totals([]kv.ShardStats{with, without}).String())
	if strings.Join(kw, " ") != strings.Join(tot, " ") {
		t.Fatalf("total line key set differs from shard lines:\n%v\n%v", kw, tot)
	}
}

func TestStatsDiff(t *testing.T) {
	mk := func(puts, gets uint64, contended float64) *Stats {
		st, err := ParseStats(statsLines(
			[]kv.ShardStats{{Shard: 0, Puts: puts, Gets: gets}},
			"stripes=64 acquired=0 contended="+trimFloat(contended)))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	before := mk(10, 100, 5)
	after := mk(25, 160, 9)
	d := after.Diff(before)
	if d["total.puts"] != 15 || d["total.gets"] != 60 || d["stripes.contended"] != 4 {
		t.Fatalf("diff = %v", d)
	}
	// A nil prev diffs against zero.
	d0 := before.Diff(nil)
	if d0["total.puts"] != 10 {
		t.Fatalf("diff vs nil = %v", d0)
	}
}

func TestParseStatsRejectsGarbage(t *testing.T) {
	for _, lines := range [][]string{
		{"shard=0 puts=1"},                 // no total line
		{"total puts=notanumber"},          // bad value
		{"total puts=1", "who knows what"}, // unknown line
		{"shard=x puts=1", "total puts=1"}, // bad shard id
		{"shard=0 puts", "total puts=1"},   // token without =
	} {
		if _, err := ParseStats(lines); err == nil {
			t.Errorf("ParseStats(%q) accepted garbage", lines)
		}
	}
}

func trimFloat(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }
