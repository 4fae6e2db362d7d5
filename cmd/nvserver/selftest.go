package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/faultinject"
	"nvmcache/internal/kv"
	"nvmcache/internal/nvclient"
	"nvmcache/internal/pmem"
	"nvmcache/internal/server"
)

// runSelfTest exercises the whole service contract end to end, over real
// TCP connections:
//
// Phase A opens a group-committing store, runs `clients` concurrent
// closed-loop clients issuing PUTs through the line protocol, and crashes
// the NVRAM heap once about half the workload has been acked. It then
// recovers the heap, serves it again, and verifies through the protocol
// that every acked write survived and every write that was refused with the
// crash error is absent (the mid-FASE batch rolled back, not half-applied).
//
// Phase B measures group commit itself. Phase A's clients wait on every PUT,
// so its batches hold about one op each; here the same number of PUTs is
// sent by pipelining binary clients to two fresh heaps, once at the
// configured batch bound and once with group commit disabled (batch=1, one
// FASE per operation). The grouped run must commit more than one op per
// batch on average and flush strictly less per committed operation, or the
// whole point of group commit is lost and the self-test fails.
func runSelfTest(opts kv.Options, clients, ops int, seed uint64, exhaustive bool) error {
	if opts.MaxBatch <= 1 {
		return fmt.Errorf("-selftest needs -batch > 1 to compare against the per-op baseline")
	}
	fmt.Printf("selftest: phase A: %d clients x %d PUTs, group commit (batch<=%d), crash at ~50%% acked\n",
		clients, ops, opts.MaxBatch)

	// The failure strikes *inside* the first commit FASE after the 50% mark
	// — after the batch's stores, before the commit — so the recovery below
	// must actually roll an interrupted batch back, not just reattach a
	// cleanly parked heap. The pre-commit event itself reads the acked
	// count: every client still has half its PUTs to send when the mark is
	// reached, so a commit that sees it always follows, however fast the
	// workload runs.
	var ackedN atomic.Int64
	var disarmed atomic.Bool
	target := int64(clients * ops / 2)
	opts.Events = func(site atlas.Site, _ int, _ uint64) {
		if site == atlas.SitePreCommit && !disarmed.Load() && ackedN.Load() >= target {
			panic(atlas.Crash{Site: site})
		}
	}
	h := pmem.New(int(kv.RecommendedHeapBytes(opts)))
	st, err := kv.Open(h, opts)
	if err != nil {
		return err
	}
	srv, err := listen(st)
	if err != nil {
		return err
	}

	acked := make(map[uint64]uint64, clients*ops) // OK reply: must survive the crash
	nacked := make(map[uint64]struct{})           // crash-refused: must be rolled back
	var mu sync.Mutex

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			cl, err := nvclient.Dial(srv.Addr().String())
			if err != nil {
				return
			}
			defer cl.Close()
			for i := uint64(0); i < uint64(ops); i++ {
				k := c<<32 | i
				v := mix(k, seed)
				reply, err := cl.Do(fmt.Sprintf("PUT %d %d", k, v))
				if err != nil {
					return // connection torn down: op outcome unknown, claim nothing
				}
				mu.Lock()
				switch {
				case reply == "OK":
					acked[k] = v
					ackedN.Add(1)
				case strings.Contains(reply, "crashed"):
					nacked[k] = struct{}{}
				}
				mu.Unlock()
				if reply != "OK" {
					return
				}
			}
		}(uint64(c))
	}
	wg.Wait()
	select {
	case <-st.Crashed():
	case <-time.After(30 * time.Second): // safety net: the pre-commit event cannot miss
		return fmt.Errorf("crash never took effect")
	}
	disarmed.Store(true) // the recovered store must not crash again
	srv.Shutdown()       // network teardown; the crashed store itself reports ErrCrashed
	statsA := kv.Totals(st.Stats())
	fmt.Printf("selftest: crashed with %d acked, %d crash-refused, %d committed batches (avg %.2f ops)\n",
		len(acked), len(nacked), statsA.Batches, statsA.AvgBatch())
	if len(acked) == 0 {
		return fmt.Errorf("no writes acked before the crash")
	}

	// Recover the same heap and serve it again.
	st2, rep, err := kv.Recover(h, opts)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	fmt.Printf("selftest: recovered: %d FASEs rolled back, %d words restored\n",
		rep.FASEsRolledBack, rep.WordsRestored)
	if rep.FASEsRolledBack == 0 {
		return fmt.Errorf("the injected mid-FASE crash left nothing to roll back")
	}
	if err := st2.CheckInvariants(); err != nil {
		return fmt.Errorf("recovered tree corrupt: %w", err)
	}
	srv2, err := listen(st2)
	if err != nil {
		return err
	}

	// Verify through the protocol, with the same client parallelism.
	type kvPair struct{ k, v uint64 }
	work := make(chan kvPair, len(acked))
	for k, v := range acked {
		work <- kvPair{k, v}
	}
	close(work)
	lost := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := nvclient.Dial(srv2.Addr().String())
			if err != nil {
				lost <- err
				return
			}
			defer cl.Close()
			for p := range work {
				reply, err := cl.Do(fmt.Sprintf("GET %d", p.k))
				if err != nil {
					lost <- err
					return
				}
				if want := fmt.Sprintf("VAL %d", p.v); reply != want {
					lost <- fmt.Errorf("acked write %d lost: got %q, want %q", p.k, reply, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-lost:
		return err
	default:
	}
	cl, err := nvclient.Dial(srv2.Addr().String())
	if err != nil {
		return err
	}
	for k := range nacked {
		reply, err := cl.Do(fmt.Sprintf("GET %d", k))
		if err != nil {
			return err
		}
		if reply != "NIL" {
			return fmt.Errorf("crash-refused write %d is durable (%q): half-committed batch", k, reply)
		}
	}
	fmt.Printf("selftest: zero acked-write loss (%d verified), %d refused writes all rolled back\n",
		len(acked), len(nacked))

	cl.Close()
	if err := srv2.Shutdown(); err != nil {
		return fmt.Errorf("graceful shutdown after recovery: %w", err)
	}

	// Phase B: the same op count, pipelined, grouped and per-op.
	fmt.Printf("selftest: phase B: %d pipelining clients x %d PUTs on fresh heaps, batch<=%d vs per-op commit (batch=1)\n",
		clients, ops, opts.MaxBatch)
	opts.Events = nil
	group, err := pipelinedPuts(opts, clients, ops, seed)
	if err != nil {
		return err
	}
	base := opts
	base.MaxBatch = 1
	perOp, err := pipelinedPuts(base, clients, ops, seed)
	if err != nil {
		return err
	}
	groupRatio, baseRatio := group.FlushRatio(), perOp.FlushRatio()
	fmt.Printf("selftest: flush ratio: group commit %.3f (avg batch %.2f) vs per-op %.3f (%.1f%% fewer flushes/op)\n",
		groupRatio, group.AvgBatch(), baseRatio, 100*(1-groupRatio/baseRatio))
	if group.BatchedOps != uint64(clients*ops) || perOp.BatchedOps != uint64(clients*ops) {
		return fmt.Errorf("phase B committed %d grouped and %d per-op ops, want %d each",
			group.BatchedOps, perOp.BatchedOps, clients*ops)
	}
	if group.AvgBatch() <= 1 {
		return fmt.Errorf("pipelined PUTs did not share commits: avg batch %.2f", group.AvgBatch())
	}
	if groupRatio >= baseRatio {
		return fmt.Errorf("group commit did not reduce flushes per op: %.3f >= %.3f", groupRatio, baseRatio)
	}
	if exhaustive {
		if err := runCrashExploration(opts); err != nil {
			return err
		}
	}
	fmt.Println("selftest: PASS")
	return nil
}

// runCrashExploration is phase C, enabled by -exhaustive: the systematic
// crash-point sweep. A small group-commit workload under the server's
// policy is first run once to enumerate every persistence boundary (undo
// appends, line write-backs, drain steps, ack boundaries); then each site
// gets its own fresh store, an injected power failure at exactly that
// boundary, a recovery, and the full service-contract check. A seeded
// randomized concurrent sweep follows (override with -faultinject.seed;
// the seed is reported so failures replay exactly).
func runCrashExploration(opts kv.Options) error {
	fmt.Printf("selftest: phase C: exhaustive crash-point exploration (policy %v)\n", opts.Policy)
	fo := faultinject.DefaultKVOptions()
	fo.Policy = opts.Policy
	fo.Config = opts.Config
	rep, err := faultinject.ExploreKV(fo)
	if err != nil {
		return err
	}
	fmt.Printf("selftest: exhaustive: %v\n", rep)
	rrep, err := faultinject.ExploreKVRandom(fo)
	if err != nil {
		return err
	}
	fmt.Printf("selftest: randomized: %v\n", rrep)
	return nil
}

// pipelineDepth is how many PUTs a phase B client sends before it reads
// their replies.
const pipelineDepth = 32

// pipelinedPuts serves a store with opts on a fresh heap and has clients
// binary clients PUT ops fresh keys each, pipelineDepth requests per
// flush, then shuts the server down and returns the store's totals.
func pipelinedPuts(opts kv.Options, clients, ops int, seed uint64) (kv.ShardStats, error) {
	h := pmem.New(int(kv.RecommendedHeapBytes(opts)))
	st, err := kv.Open(h, opts)
	if err != nil {
		return kv.ShardStats{}, err
	}
	srv, err := listen(st)
	if err != nil {
		return kv.ShardStats{}, err
	}
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			if err := pipelineClient(srv.Addr().String(), c, ops, seed); err != nil {
				errs <- err
			}
		}(uint64(c))
	}
	wg.Wait()
	if err := srv.Shutdown(); err != nil {
		return kv.ShardStats{}, err
	}
	select {
	case err := <-errs:
		return kv.ShardStats{}, err
	default:
	}
	return kv.Totals(st.Stats()), nil
}

// pipelineClient PUTs keys c<<32 | i for i < ops over one binary
// connection, pipelineDepth at a time.
func pipelineClient(addr string, c uint64, ops int, seed uint64) error {
	cl, err := nvclient.DialBinary(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for i := 0; i < ops; i += pipelineDepth {
		n := min(pipelineDepth, ops-i)
		for j := 0; j < n; j++ {
			k := c<<32 | uint64(i+j)
			if err := cl.SendPut(k, mix(k, seed)); err != nil {
				return err
			}
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			if appErr, err := cl.RecvResult(); err != nil || appErr {
				return fmt.Errorf("pipelined PUT %d: error reply %v, %v", c<<32|uint64(i+j), appErr, err)
			}
		}
	}
	return nil
}

// mix derives a value from a key and the seed (splitmix-style, so verify
// can recompute it).
func mix(k, seed uint64) uint64 {
	x := k + seed*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// listen starts a server for st on an ephemeral loopback port.
func listen(st *kv.Store) (*server.Server, error) {
	return server.Start(st, "127.0.0.1:0", server.Options{})
}
