package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef declares one metric. BENCHMARK.json repeats name, unit, better
// and bound (a test keeps the two in step); moves, printed with every
// per-layer metric, is the prediction written down before measuring: which
// end-to-end metric this layer metric should drag along, on which workload.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_latency_us", unit: "us", better: "lower", bound: 0.25},
	{name: "flush_lines_per_put", unit: "lines", better: "lower", bound: 0.05},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
}

const (
	movesPutPath  = "op_latency_us on mixed_open by the FASE share; ops_s on put_window, crash_cycle once kv stops waiting out the timer"
	movesBatching = "ops_s, op_latency_us on put_window; op_latency_us on mixed_open"
	movesFlushes  = "flush_lines_per_put on put_window, mixed_open"
	movesGetPath  = "ops_s, op_latency_us on get_window"
	movesRecovery = "ops_s on crash_cycle"
	movesNone     = "diagnostic"
)

var perLayer = []metricDef{
	{name: "pmem.store64_ns", unit: "ns", better: "lower", moves: movesPutPath},
	{name: "pmem.flush_line_ns", unit: "ns", better: "lower", moves: movesPutPath},
	{name: "pmem.stripe_contended_frac", unit: "frac", better: "lower", moves: movesPutPath},
	{name: "core.wcache_access_ns", unit: "ns", better: "lower", moves: movesPutPath},
	{name: "core.wcache_hit_frac", unit: "frac", better: "higher", moves: movesFlushes},
	{name: "core.policy_store_ns", unit: "ns", better: "lower", moves: movesPutPath},
	{name: "atlas.store64_ns", unit: "ns", better: "lower", moves: movesPutPath},
	{name: "atlas.fase1_ns", unit: "ns", better: "lower", moves: movesPutPath},
	{name: "atlas.fase64_ns", unit: "ns", better: "lower", moves: movesPutPath},
	{name: "atlas.fase64_flushes", unit: "lines", better: "lower", moves: movesFlushes},
	{name: "atlas.self_store_ns", unit: "ns", better: "lower", moves: movesPutPath},
	{name: "mdb.put1_ns", unit: "ns", better: "lower", moves: movesPutPath},
	{name: "mdb.put64_ns", unit: "ns", better: "lower", moves: movesPutPath},
	{name: "mdb.get_ns", unit: "ns", better: "lower", moves: movesGetPath},
	{name: "mdb.put1_stores", unit: "stores", better: "lower", moves: movesPutPath},
	{name: "mdb.put1_flushes", unit: "lines", better: "lower", moves: movesFlushes},
	{name: "mdb.put64_flushes", unit: "lines", better: "lower", moves: movesFlushes},
	{name: "mdb.self_put_ns", unit: "ns", better: "lower", moves: movesPutPath},
	{name: "kv.get_ns", unit: "ns", better: "lower", moves: movesGetPath},
	{name: "kv.put_c1_us", unit: "us", better: "lower", moves: movesBatching},
	{name: "kv.put_c2_us", unit: "us", better: "lower", moves: movesBatching},
	{name: "kv.put_c128_us", unit: "us", better: "lower", moves: movesBatching},
	{name: "kv.putbatch64_ns", unit: "ns", better: "lower", moves: "setup_s on all workloads"},
	{name: "kv.getbatch16_ns", unit: "ns", better: "lower", moves: movesNone},
	{name: "kv.put_allocs", unit: "allocs", better: "lower", moves: movesPutPath},
	{name: "kv.self_put_us", unit: "us", better: "lower", moves: movesBatching},
	{name: "kv.avg_batch", unit: "ops", better: "higher", moves: movesBatching + "; " + movesFlushes},
	{name: "kv.batches_per_s", unit: "1/s", better: "higher", moves: movesBatching},
	{name: "kv.aborts", unit: "count", better: "lower", moves: movesNone},
	{name: "kv.recover_ms", unit: "ms", better: "lower", moves: movesRecovery},
	{name: "kv.fases_rolled_back", unit: "count", better: "lower", moves: movesNone},
	{name: "proto.put_codec_ns", unit: "ns", better: "lower", moves: movesGetPath},
	{name: "proto.val_codec_ns", unit: "ns", better: "lower", moves: movesGetPath},
	{name: "proto.codec_allocs", unit: "allocs", better: "lower", moves: movesGetPath},
	{name: "server.rtt_get_w1_us", unit: "us", better: "lower", moves: movesGetPath},
	{name: "server.rtt_put_w1_us", unit: "us", better: "lower", moves: movesBatching},
	{name: "server.self_get_us", unit: "us", better: "lower", moves: movesGetPath},
	{name: "server.allocs_per_op", unit: "allocs", better: "lower", moves: movesGetPath},
	{name: "nvclient.encode_ns", unit: "ns", better: "lower", moves: movesGetPath},
	{name: "nvclient.flush_us", unit: "us", better: "lower", moves: movesGetPath},
	{name: "nvclient.wait_us", unit: "us", better: "lower", moves: movesBatching},
	{name: "nvclient.drain_us", unit: "us", better: "lower", moves: movesGetPath},
	{name: "nvclient.put_p50_us", unit: "us", better: "lower", moves: movesBatching},
	{name: "nvclient.put_p90_us", unit: "us", better: "lower", moves: movesBatching},
	{name: "nvclient.put_p99_us", unit: "us", better: "lower", moves: movesNone},
	{name: "nvclient.get_p50_us", unit: "us", better: "lower", moves: movesGetPath},
	{name: "nvclient.get_p90_us", unit: "us", better: "lower", moves: movesBatching},
	{name: "nvclient.get_p99_us", unit: "us", better: "lower", moves: movesNone},
	{name: "nvclient.max_us", unit: "us", better: "lower", moves: movesNone},
	{name: "nvclient.gen_late_p90_us", unit: "us", better: "lower", moves: movesNone},
	{name: "process.cpu_us_per_op", unit: "us", better: "lower", moves: movesPutPath},
	{name: "trace_overhead_frac", unit: "frac", better: "lower", moves: movesNone},
}

// sample is one measured metric: its value and how many observations
// stand behind it.
type sample struct {
	value float64
	n     uint64
}

// result is the outcome of one run of one workload.
type result struct {
	workload          string
	attempted, failed uint64
	// wrong counts replies that carried the wrong value (or the wrong
	// kind); ackedLost counts acknowledged writes missing after a
	// recovery. Either makes the run incorrect.
	wrong, ackedLost uint64
	// crashAborted counts operations in flight when crash_cycle pulled
	// the plug: expected, neither acked nor failed.
	crashAborted uint64
	problems     []string
	values       map[string]sample
}

func (r *result) correct() bool { return r.wrong == 0 && r.ackedLost == 0 && len(r.problems) == 0 }

func (r *result) set(name string, v float64, n uint64) {
	if r.values == nil {
		r.values = make(map[string]sample)
	}
	r.values[name] = sample{v, n}
}

// print writes one line per declared metric, then, as the last line, the
// JSON object the benchmark contract asks for.
func (r *result) print(w io.Writer, defs []metricDef) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]jsonMetric)}

	for _, d := range defs {
		s, ok := r.values[d.name]
		if !ok || math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		}
		fmt.Fprintf(w, "metric %s %s = %.6g %s n=%d attempted=%d failed=%d",
			r.workload, d.name, s.value, d.unit, s.n, r.attempted, r.failed)
		if d.moves != "" {
			fmt.Fprintf(w, " moves=%q", d.moves)
		}
		fmt.Fprintln(w)
		out.Metrics[d.name] = jsonMetric{s.value, d.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "problem %s %s\n", r.workload, p)
	}
	fmt.Fprintf(w, "checks %s attempted=%d failed=%d wrong=%d acked_lost=%d crash_aborted=%d\n",
		r.workload, r.attempted, r.failed, r.wrong, r.ackedLost, r.crashAborted)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
