// Command nvserver serves the sharded, group-committing durable KV engine
// (internal/kv) over TCP, on an emulated NVRAM heap driven by the paper's
// adaptive persistence runtime. Run it plain to get a server, or with
// -selftest to run the end-to-end crash/recovery and group-commit
// efficiency check (see selftest.go).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nvmcache/internal/core"
	"nvmcache/internal/kv"
	"nvmcache/internal/pmem"
	"nvmcache/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "listen address")
		shards     = flag.Int("shards", 4, "independent shards (one tree + request queue each, committed by the connections that wait on them)")
		batch      = flag.Int("batch", 64, "max operations per group commit (1 = one FASE per op)")
		pool       = flag.Int("pool-pages", 1<<13, "per-shard B+-tree page pool capacity")
		policy     = flag.String("policy", kv.DefaultOptions().Policy.String(), "persistence policy: ER, LA, AT, SC, SC-offline, BEST (SC-offline runs at the paper's 50-line cap)")
		duration   = flag.Duration("duration", 0, "serve for this long, then shut down gracefully (0 = until SIGINT/SIGTERM)")
		selftest   = flag.Bool("selftest", false, "run the crash/recovery self-test and exit")
		exhaustive = flag.Bool("exhaustive", false, "self-test: add phase C, the exhaustive crash-point exploration")
		clients    = flag.Int("clients", 8, "self-test: concurrent closed-loop clients")
		ops        = flag.Int("ops", 2000, "self-test: PUT operations per client")
		seed       = flag.Uint64("seed", 1, "self-test: value-mixing seed")
	)
	flag.Parse()

	opts := kv.DefaultOptions()
	opts.Shards = *shards
	opts.MaxBatch = *batch
	opts.PoolPages = *pool
	pk, err := parsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvserver:", err)
		os.Exit(2)
	}
	opts.Policy = pk

	if *selftest {
		if err := runSelfTest(opts, *clients, *ops, *seed, *exhaustive); err != nil {
			fmt.Fprintln(os.Stderr, "selftest: FAIL:", err)
			os.Exit(1)
		}
		return
	}
	if err := serve(*addr, opts, *duration); err != nil {
		fmt.Fprintln(os.Stderr, "nvserver:", err)
		os.Exit(1)
	}
}

func parsePolicy(name string) (core.PolicyKind, error) {
	for _, k := range core.AllPolicyKinds() {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want ER, LA, AT, SC, SC-offline or BEST)", name)
}

// serve runs the server until SIGINT/SIGTERM — or, with -duration, a
// deadline — then shuts down gracefully: accepting stops, connection
// readers unblock, and every batch already in the shard queues is
// committed, flushed and acked before the store closes, so a timed load
// run always ends with a clean durable state.
func serve(addr string, opts kv.Options, duration time.Duration) error {
	h := pmem.New(int(kv.RecommendedHeapBytes(opts)))
	st, err := kv.Open(h, opts)
	if err != nil {
		return err
	}
	srv, err := server.Start(st, addr, server.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("nvserver: serving on %s (shards=%d batch<=%d policy=%v heap=%dKiB)\n",
		srv.Addr(), opts.Shards, opts.MaxBatch, opts.Policy, h.Size()/1024)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var timeout <-chan time.Time
	if duration > 0 {
		timeout = time.After(duration)
	}
	select {
	case <-sig:
		fmt.Println("nvserver: signal: shutting down (draining pending batches)")
	case <-timeout:
		fmt.Printf("nvserver: -duration %v elapsed: shutting down (draining pending batches)\n", duration)
	}
	err = srv.Shutdown()
	for _, s := range st.Stats() {
		fmt.Println(s)
	}
	return err
}
