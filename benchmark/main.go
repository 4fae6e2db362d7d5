// Command benchmark is the repository's benchmark: it boots the shipped
// serving configuration in-process behind a loopback listener, drives it
// with one of four workloads over two pipelined binary-protocol
// connections, checks every reply, and prints every metric by name.
//
//	go run ./benchmark                       every workload, plain and traced
//	go run ./benchmark -workload put_window  one plain run; last line is JSON
//	go run ./benchmark -calibrate 10         run-to-run spread of every metric
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

type workloadDef struct{ name, why string }

var workloads = []workloadDef{
	{"put_window", "closed loop, 2 conns x 64 outstanding PUTs to uniform keys: the durable-write path at saturation, where group commit, FASE, COW and flush costs all land"},
	{"get_window", "closed loop, 2 conns x 64 outstanding GETs to Zipf keys with a lone PUT every 250 ms: bypasses persistence, so only wire, dispatch and read-path changes may move it"},
	{"mixed_open", "open loop, Poisson 400 ops/s, half GET half PUT, Zipf keys, latency from intended send: the cost of a lone durable write and of a GET queued behind one"},
	{"crash_cycle", "8 serve-crash-recover-verify cycles on one heap, 2 conns x 16 alternating PUT,GET: durability under power failure, with recovery and redial time inside throughput"},
}

// config is one run's settings. Warm-up, set-up count, crash cycles and
// rung length are fixed by the mode (full or smoke), not by flags of their
// own.
type config struct {
	workload string
	seed     int64
	trace    bool
	seconds  time.Duration // the measured window
	warmup   time.Duration
	setups   int           // set-ups timed per run; setup_s is the fastest
	cycles   int           // crash_cycle's crash/recover cycles
	rung     time.Duration // time per ladder rung
	outDir   string        // where trace files go
}

func newConfig(workload string, seed int64, seconds float64, trace, smoke bool, outDir string) config {
	cfg := config{workload: workload, seed: seed, trace: trace, outDir: outDir,
		seconds: time.Duration(seconds * float64(time.Second)),
		warmup:  3 * time.Second, setups: 5, cycles: 8, rung: 200 * time.Millisecond}
	if smoke {
		cfg.seconds, cfg.warmup, cfg.setups, cfg.cycles, cfg.rung =
			time.Second, 200*time.Millisecond, 1, 2, 20*time.Millisecond
	}
	return cfg
}

func main() {
	workload := flag.String("workload", "", "run one workload and print its result as JSON on the last line; empty runs all of them, plain and traced")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 24, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans, runs the layer ladder and reports the per-layer metrics instead of the end-to-end ones")
	smoke := flag.Bool("smoke", false, "one-second windows, two crash cycles, 20 ms ladder rungs: checks that everything runs, measures nothing")
	calibrate := flag.Int("calibrate", 0, "repeat the end-to-end runs this many times (at least 5) and print each metric's spread and proposed bound")
	outDir := flag.String("out", "benchmark/out", "directory for trace files")
	flag.Parse()

	var err error
	switch {
	case *workload != "":
		var res *result
		cfg := newConfig(*workload, *seed, *seconds, *trace == 1, *smoke, *outDir)
		if res, err = runWorkload(cfg); err == nil {
			if err = res.print(os.Stdout, defsFor(cfg.trace)); err == nil && !res.correct() {
				os.Exit(1)
			}
		}
	case *calibrate > 0:
		err = runCalibration(*calibrate, *seed, *seconds, *smoke)
	default:
		err = runSuite(*seed, *seconds, *smoke, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runWorkload is one run: set up, warm up, measure, check.
func runWorkload(cfg config) (*result, error) {
	known := false
	for _, w := range workloads {
		known = known || w.name == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < time.Second {
		return nil, errors.New("-seconds must be at least 1")
	}
	b := newBench(cfg)
	res := &result{workload: cfg.workload}

	first, err := b.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if cfg.trace {
		err = b.tracedRun(res)
	} else {
		err = b.plainRun(res)
	}
	// After crash_cycle's last recovery the store is healthy again, so
	// every workload ends with a graceful shutdown.
	if terr := b.teardown(); err == nil && terr != nil {
		err = fmt.Errorf("shutting down: %w", terr)
	}
	if err == nil && !cfg.trace {
		err = b.timeSetups(first, res)
	}
	for _, c := range b.conns {
		res.attempted += c.attempted
		res.failed += c.failed
		res.wrong += c.wrong
		res.crashAborted += c.crashAborted
	}
	return res, err
}

// timeSetups repeats the set-up, after the measurement so that the heaps it
// throws away are not in peak_rss_mb, and reports the fastest: like a slice
// of the window, a set-up is slowed by a busy neighbour, never sped up.
func (b *bench) timeSetups(first time.Duration, res *result) error {
	seconds := []float64{first.Seconds()}
	for len(seconds) < b.cfg.setups {
		runtime.GC() // the previous stack is garbage: let the next reuse its memory
		d, err := b.setup()
		if err != nil {
			return fmt.Errorf("set-up %d: %w", len(seconds)+1, err)
		}
		seconds = append(seconds, d.Seconds())
		if err := b.teardown(); err != nil {
			return fmt.Errorf("tearing down set-up %d: %w", len(seconds), err)
		}
	}
	sort.Float64s(seconds)
	res.set("setup_s", seconds[0], uint64(len(seconds)))
	return nil
}

// measure runs the workload once for d.
func (b *bench) measure(d time.Duration, traced bool, res *result) (*phase, error) {
	if b.isCrash() {
		return b.crashCycles(b.cfg.cycles, d/time.Duration(b.cfg.cycles), traced, res)
	}
	return b.drive(d, true, traced)
}

// warmUp drives the workload unmeasured and then collects garbage, so that
// every run enters its window at the same point of the collector's cycle.
// Without that, whether the heap reaches its next goal inside the window is
// a matter of a few megabytes, and peak_rss_mb reads 99 or 124 MiB on
// put_window from one run to the next.
func (b *bench) warmUp() error {
	if !b.isCrash() { // every crash cycle starts cold: that is the workload
		if _, err := b.drive(b.cfg.warmup, false, false); err != nil {
			return err
		}
	}
	runtime.GC()
	return nil
}

// summary is a phase's end-to-end figures.
type summary struct {
	opsPerSec, cpuUsPerOp, latencyUs float64
	latencyN                         uint64 // samples behind latencyUs
}

// summarize reduces a phase to one number per figure. Closed loops: the
// good-side decile of the per-slice values (see bestTenth). The open loop's
// rate is set by its schedule, so it is simply completions over the window,
// and its latency is the first decile of the lone PUTs: a PUT that finds its
// connection idle costs the batch timer plus four wake-ups of a sleeping
// CPU, each of which this host delivers anything from 50 us to several
// milliseconds late, so the median of those PUTs follows the host's
// neighbours (2.7-4.3 ms in ten identical runs) while their first decile
// follows the program (2.26-2.46 ms in the same runs).
func (b *bench) summarize(p *phase) summary {
	var rates, cpus, p50s []float64
	for i := range p.slices {
		sl := &p.slices[i]
		if sl.ops > 0 {
			rates = append(rates, sl.ops/sl.elapsed.Seconds())
			cpus = append(cpus, float64(sl.cpu)/float64(time.Microsecond)/sl.ops)
		}
		if h := b.primary(&sl.put, &sl.get); h.n > 0 {
			p50s = append(p50s, us(h.quantile(0.50)))
		}
	}
	sum := summary{bestTenth(rates, true), bestTenth(cpus, false), bestTenth(p50s, false),
		b.primary(&p.rec.put, &p.rec.get).n}
	if b.cfg.workload == "mixed_open" {
		sum.opsPerSec = float64(p.rec.ops) / p.elapsed.Seconds()
		sum.latencyUs, sum.latencyN = us(bestTenth(p.rec.lonePut, false)), uint64(len(p.rec.lonePut))
	}
	return sum
}

func us(nanos float64) float64 { return nanos / 1e3 }

// primary picks the latency histogram of the operation the workload is
// about: the GET on get_window, the durable PUT everywhere else (on
// crash_cycle a window holds both and they share its latency). The other
// verb's percentiles are nvclient.* diagnostics of the traced run.
func (b *bench) primary(put, get *hist) *hist {
	if b.cfg.workload == "get_window" {
		return get
	}
	return put
}

func (b *bench) plainRun(res *result) error {
	if err := b.warmUp(); err != nil {
		return err
	}
	p, err := b.measure(b.cfg.seconds, false, res)
	if err != nil {
		return err
	}
	r := p.rec
	sum := b.summarize(p)
	if r.ops == 0 || r.put.n == 0 || r.get.n == 0 || p.batchedOps == 0 || sum.latencyN == 0 {
		return fmt.Errorf("%s: the measured window completed %d ops (%d PUT, %d GET, %d latency samples, %d committed): nothing to report",
			b.cfg.workload, r.ops, r.put.n, r.get.n, sum.latencyN, p.batchedOps)
	}
	res.set("ops_s", sum.opsPerSec, r.ops)
	res.set("op_latency_us", sum.latencyUs, sum.latencyN)
	res.set("flush_lines_per_put", float64(p.flushes)/float64(p.batchedOps), p.batchedOps)
	res.set("peak_rss_mb", getUsage().maxRSSMiB, 1)
	return nil
}

// tracedRun measures the workload twice in one process, first with
// tracing off and then with it on, so the overhead of tracing is the
// difference of two throughputs taken minutes apart at most; then it runs
// the ladder and writes the trace file.
func (b *bench) tracedRun(res *result) error {
	if err := b.warmUp(); err != nil {
		return err
	}
	half := b.cfg.seconds / 2
	if half < time.Second {
		half = time.Second
	}
	if b.isCrash() && b.cfg.cycles > 2 {
		b.cfg.cycles /= 2
	}
	plain, err := b.measure(half, false, res)
	if err != nil {
		return err
	}
	traced, err := b.measure(half, true, res)
	if err != nil {
		return err
	}
	epoch := traced.start
	rungs, ladderSpans, err := runLadder(b.cfg.seed, b.cfg.rung, epoch)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	for name, s := range rungs {
		res.set(name, s.value, s.n)
	}

	r := traced.rec
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	res.set("pmem.stripe_contended_frac", ratio(float64(traced.stripeContended), float64(traced.stripeAcquired)), uint64(traced.stripeAcquired))
	res.set("kv.avg_batch", ratio(float64(traced.batchedOps), float64(traced.batches)), traced.batches)
	res.set("kv.batches_per_s", float64(traced.batches)/traced.elapsed.Seconds(), traced.batches)
	res.set("kv.aborts", float64(traced.aborts), traced.batches)
	res.set("kv.recover_ms", median(traced.recoverMs), uint64(len(traced.recoverMs)))
	res.set("kv.fases_rolled_back", float64(traced.rolledBack), uint64(len(traced.recoverMs)))
	res.set("server.allocs_per_op", ratio(float64(traced.mallocs), float64(r.allOps)), r.allOps)
	res.set("nvclient.encode_ns", r.encode.quantile(0.5), r.encode.n)
	res.set("nvclient.flush_us", us(r.flush.quantile(0.5)), r.flush.n)
	res.set("nvclient.wait_us", us(r.wait.quantile(0.5)), r.wait.n)
	res.set("nvclient.drain_us", us(r.drain.quantile(0.5)), r.drain.n)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
		res.set("nvclient.put_"+q.name+"_us", us(r.put.quantile(q.q)), r.put.n)
		res.set("nvclient.get_"+q.name+"_us", us(r.get.quantile(q.q)), r.get.n)
	}
	maxNs := r.put.max
	if r.get.max > maxNs {
		maxNs = r.get.max
	}
	res.set("nvclient.max_us", us(float64(maxNs)), r.put.n+r.get.n)
	res.set("nvclient.gen_late_p90_us", us(r.late.quantile(0.9)), r.late.n)
	sum := b.summarize(traced)
	res.set("process.cpu_us_per_op", sum.cpuUsPerOp, r.ops)
	res.set("trace_overhead_frac", 1-ratio(sum.opsPerSec, b.summarize(plain).opsPerSec), r.ops)

	tf := &traceFile{Workload: b.cfg.workload, Seed: b.cfg.seed, Spans: ladderSpans, Counters: map[string]float64{
		"kv.batches": float64(traced.batches), "kv.batched_ops": float64(traced.batchedOps),
		"kv.aborts": float64(traced.aborts), "kv.flushed_lines": float64(traced.flushes),
		"pmem.stripe_acquired": float64(traced.stripeAcquired), "pmem.stripe_contended": float64(traced.stripeContended),
		"process.mallocs": float64(traced.mallocs), "process.cpu_us": float64(traced.cpu) / float64(time.Microsecond),
		"ops": float64(r.allOps), "elapsed_us": float64(traced.elapsed) / float64(time.Microsecond),
		"kv.recover_ms_max": maxOf(traced.recoverMs),
	}}
	for i, c := range traced.conns {
		tf.addWindows(epoch, i, &c.spans)
	}
	path, err := tf.write(b.cfg.outDir)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace %s %s windows=%d recorded=%d\n", b.cfg.workload, path, tf.WindowsTotal, tf.WindowsRecorded)
	return nil
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// child is what a run in a process of its own reported on its last line.
type child struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runChild re-executes this program for one workload, so every run starts
// in a cold process and peak_rss_mb is the workload's own. Its output is
// passed through.
func runChild(out io.Writer, workload string, seed int64, seconds float64, trace int, smoke bool, outDir string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), fmt.Sprintf("-smoke=%v", smoke), "-out", outDir)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	last := lines[len(lines)-1]
	var c child
	if err := json.Unmarshal([]byte(last), &c); err != nil {
		out.Write(stdout)
		return nil, fmt.Errorf("%s (trace %d): no result (%v)", workload, trace, errors.Join(runErr, err))
	}
	fmt.Fprintln(out, strings.Join(lines[:len(lines)-1], "\n"))
	if !c.Correct {
		return &c, fmt.Errorf("%s (trace %d): wrong results", workload, trace)
	}
	return &c, runErr
}

// runSuite runs every workload plain, then traced, and sums the checks.
func runSuite(seed int64, seconds float64, smoke bool, outDir string) error {
	var attempted, failed uint64
	for trace := 0; trace <= 1; trace++ {
		for _, w := range workloads {
			c, err := runChild(os.Stdout, w.name, seed, seconds, trace, smoke, outDir)
			if err != nil {
				return err
			}
			attempted += c.Attempted
			failed += c.Failed
		}
	}
	fmt.Printf("ok workloads=%d attempted=%d failed=%d acked_lost=0\n", len(workloads), attempted, failed)
	return nil
}

// runCalibration repeats the plain runs with consecutive seeds and prints,
// per metric and workload, the median, the quartiles, the interquartile
// range as a share of the median (what the driver holds against the
// bound) and the full range, and proposes a bound: the declared one, or
// 1.5 times the full range if that is larger.
func runCalibration(n int, seed int64, seconds float64, smoke bool) error {
	if n < 5 {
		return errors.New("-calibrate needs at least 5 repetitions")
	}
	values := make(map[string][]float64) // "workload metric" → one value per repetition
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			c, err := runChild(io.Discard, w.name, seed+int64(i), seconds, 0, smoke, "")
			if err != nil {
				return err
			}
			if c.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d operations failed", w.name, seed+int64(i), c.Failed)
			}
			for name, m := range c.Metrics {
				values[w.name+" "+name] = append(values[w.name+" "+name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "calibrate: repetition %d/%d %s done\n", i+1, n, w.name)
		}
	}
	fmt.Printf("%-12s %-20s %12s %12s %12s %8s %8s %8s %8s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "propose  values in run order")
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := append([]float64(nil), values[w.name+" "+d.name]...)
			sort.Float64s(v)
			med, q1, q3 := quantileOf(v, 0.5), quantileOf(v, 0.25), quantileOf(v, 0.75)
			rng := (v[len(v)-1] - v[0]) / med
			propose := d.bound
			if 1.5*rng > propose {
				propose = 1.5 * rng
			}
			fmt.Printf("%-12s %-20s %12.6g %12.6g %12.6g %8.4f %8.4f %8.2f %8.2f  %.5g\n",
				w.name, d.name, med, q1, q3, (q3-q1)/med, rng, d.bound, propose, values[w.name+" "+d.name])
		}
	}
	return nil
}
