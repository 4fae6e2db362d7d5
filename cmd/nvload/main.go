// Command nvload is the open-loop load generator for nvserver: it sends
// operations at a fixed arrival rate across pipelined connections,
// measures latency from each operation's *intended* send time
// (coordinated-omission aware, wrk2-style), evaluates declared SLOs, and
// persists a BENCH_<exp>.json artifact with the full latency histogram
// and the server's STATS delta.
//
// Usage:
//
//	nvload -addr host:port [-rate 5000] [-conns 4] [-duration 10s | -ops N]
//	       [-proto text|binary]
//	       [-dist uniform|zipf|churn|scan|incr|kind@frac,kind@frac,...]
//	       [-mix put:2,get:2,incr:1,mget:1,mput:1,...]
//	       [-keys N] [-skew S] [-read-frac F] [-scan-len N] [-batch-len N] [-preload N]
//	       [-slo-p99 5ms] [-slo-p999 20ms] [-slo-min-tput 1000] [-slo-max-err 0.01]
//	       [-out BENCH_x.json] [-exp name]
//	nvload -selfhost ...          # boot an in-process nvserver, no -addr needed
//	nvload -check BENCH_x.json    # validate an artifact's schema and exit
//
// Exit status: 0 on success, 1 on error, 2 when the run finished but
// failed its declared SLO (so CI can gate on latency targets directly).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nvmcache/internal/kv"
	"nvmcache/internal/loadgen"
	"nvmcache/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "", "nvserver address (host:port)")
		selfhost  = flag.Bool("selfhost", false, "boot an in-process nvserver on a loopback port and drive it")
		shards    = flag.Int("shards", 0, "shard count for -selfhost (0 = store default)")
		rate      = flag.Float64("rate", 5000, "aggregate arrival rate, ops/sec (open loop)")
		conns     = flag.Int("conns", 4, "connection count the rate is spread across")
		duration  = flag.Duration("duration", 0, "length of the arrival schedule")
		ops       = flag.Int("ops", 0, "total operation count (alternative to -duration)")
		dist      = flag.String("dist", "uniform", "distribution: uniform, zipf, churn, scan, incr, or a kind@frac,... phase schedule")
		mix       = flag.String("mix", "", "weighted verb mix (verb:weight,... over get,put,del,incr,decr,scan,mget,mput); overrides -dist")
		keys      = flag.Uint64("keys", 1<<16, "keyspace size (churn: live-window size)")
		skew      = flag.Float64("skew", 1.1, "zipf skew parameter (>1)")
		readFrac  = flag.Float64("read-frac", 0.5, "GET fraction (scan: SCAN fraction)")
		scanLen   = flag.Int("scan-len", 16, "pairs per SCAN")
		batchLen  = flag.Int("batch-len", 8, "keys per MGET/MPUT (mix verbs mget, mput)")
		protoMode = flag.String("proto", "text", "wire protocol: text or binary")
		preload   = flag.Uint64("preload", 0, "PUT keys [0,n) before the measured window")
		seed      = flag.Int64("seed", 42, "workload seed (same seed = same op stream)")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-reply timeout")

		sloP50  = flag.Duration("slo-p50", 0, "SLO: max p50 latency (0 = unchecked)")
		sloP99  = flag.Duration("slo-p99", 0, "SLO: max p99 latency")
		sloP999 = flag.Duration("slo-p999", 0, "SLO: max p999 latency")
		sloTput = flag.Float64("slo-min-tput", 0, "SLO: min completed ops/sec")
		sloErr  = flag.Float64("slo-max-err", 0, "SLO: max (errors+timeouts)/sent fraction")

		out   = flag.String("out", "", "write the BENCH artifact (JSON) here")
		exp   = flag.String("exp", "loadgen", "experiment id stamped into the artifact")
		check = flag.String("check", "", "validate an existing BENCH artifact and exit")
	)
	flag.Parse()

	if *check != "" {
		b, err := loadgen.ReadBench(*check)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: valid %s artifact, experiment %q, commit %.12s, %d observations\n",
			*check, b.Schema, b.Experiment, b.Git.Commit, b.Metrics.Completed)
		return
	}

	target := *addr
	if *selfhost {
		kvOpts := kv.DefaultOptions()
		if *shards > 0 {
			kvOpts.Shards = *shards
		}
		srv, err := server.SelfHost(kvOpts, server.Options{})
		if err != nil {
			fatal(err)
		}
		defer srv.Shutdown()
		target = srv.Addr().String()
		fmt.Fprintf(os.Stderr, "nvload: self-hosted nvserver on %s\n", target)
	}

	base := loadgen.Spec{Keys: *keys, Skew: *skew, ReadFrac: *readFrac, ScanLen: *scanLen, BatchLen: *batchLen}
	var spec loadgen.Spec
	var err error
	if *mix != "" {
		spec, err = loadgen.ParseMix(*mix, base)
	} else {
		spec, err = loadgen.ParseDist(*dist, base)
	}
	if err != nil {
		fatal(err)
	}
	cfg := loadgen.Config{
		Addr:     target,
		Rate:     *rate,
		Conns:    *conns,
		Duration: *duration,
		Ops:      *ops,
		Dist:     spec,
		Seed:     *seed,
		Proto:    *protoMode,
		Timeout:  *timeout,
		Preload:  *preload,
	}
	slo := loadgen.SLO{P50: *sloP50, P99: *sloP99, P999: *sloP999,
		MinThroughput: *sloTput, MaxErrorFrac: *sloErr}
	if !slo.IsZero() {
		cfg.SLO = &slo
	}

	rep, err := loadgen.Run(cfg)
	if err != nil {
		fatal(err)
	}
	printReport(rep)

	if *out != "" {
		if err := loadgen.WriteBench(*out, rep.Bench(*exp)); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if rep.SLO != nil && !rep.SLO.Pass {
		os.Exit(2)
	}
}

func printReport(r *loadgen.Report) {
	fmt.Printf("dist=%s rate=%.0f/s conns=%d\n", r.Config.Dist.Name(), r.Config.Rate, r.Config.Conns)
	fmt.Printf("sent=%d completed=%d errors=%d timeouts=%d in %v (%.0f ops/s)\n",
		r.Sent, r.Completed, r.Errors, r.Timeouts,
		r.Elapsed.Round(time.Millisecond), r.Throughput())
	fmt.Printf("latency (from intended send): p50=%v p90=%v p99=%v p999=%v max=%v\n",
		r.Hist.Quantile(0.50).Round(time.Microsecond),
		r.Hist.Quantile(0.90).Round(time.Microsecond),
		r.Hist.Quantile(0.99).Round(time.Microsecond),
		r.Hist.Quantile(0.999).Round(time.Microsecond),
		r.Hist.Max().Round(time.Microsecond))
	for i, h := range r.PhaseHists {
		fmt.Printf("  phase %d (%s): completed=%d p50=%v p99=%v\n",
			i, r.PhaseNames[i], h.Count(),
			h.Quantile(0.50).Round(time.Microsecond),
			h.Quantile(0.99).Round(time.Microsecond))
	}
	if d := r.ServerDelta; len(d) > 0 {
		fmt.Printf("server: ops=%.0f puts=%.0f gets=%.0f dels=%.0f scans=%.0f flush_ratio_pts=%.3f stripe_contended=%.0f\n",
			d["total.ops"], d["total.puts"], d["total.gets"], d["total.dels"], d["total.scans"],
			d["total.flush_ratio"], d["stripes.contended"])
		if ctr := d["total.incrs"] + d["total.decrs"]; ctr > 0 {
			fmt.Printf("counters: incrs=%.0f decrs=%.0f\n", d["total.incrs"], d["total.decrs"])
		}
	}
	if r.SLO != nil {
		fmt.Println(r.SLO.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvload:", err)
	os.Exit(1)
}
