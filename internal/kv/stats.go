package kv

import (
	"fmt"
	"strings"
	"sync/atomic"

	"nvmcache/internal/pmem"
)

// counters is the shard's instrumentation. The committer updates the
// atomics at batch boundaries (flush counters are snapshots of the
// thread's totals, published after each commit so observers never race the
// mutating thread); gets is bumped by reader goroutines directly, and by
// the committer for the GETs it answers in queue order.
type counters struct {
	puts, dels   atomic.Uint64
	incrs, decrs atomic.Uint64
	gets         atomic.Uint64
	descents     atomic.Uint64 // slot-cache misses that walked the tree
	scans        atomic.Uint64
	batches      atomic.Uint64
	batchedOps   atomic.Uint64
	aborts       atomic.Uint64

	flushAsync    atomic.Int64
	flushDrained  atomic.Int64
	flushBarriers atomic.Int64
}

// note records one committed batch: operation mix and flush-counter
// snapshot.
func (sh *shard) note(batch []request) {
	post := sh.th.FlushStats()
	sh.noteOps(batch)
	sh.batches.Add(1)
	sh.batchedOps.Add(uint64(logicalOps(batch)))
	sh.flushAsync.Store(post.Async)
	sh.flushDrained.Store(post.Drained)
	sh.flushBarriers.Store(post.Barriers)
}

// noteOps counts acked operations by kind (shared by the FASE and the
// read-only ack paths), queued GETs included.
func (sh *shard) noteOps(batch []request) {
	var nput, ndel, nincr, ndecr, nget uint64
	for i := range batch {
		switch batch[i].op {
		case OpGet:
			nget++
		case OpPut:
			nput++
		case opPuts:
			nput += uint64(len(batch[i].pairs))
		case OpDel:
			ndel++
		case OpIncr:
			nincr++
		case OpDecr:
			ndecr++
		}
	}
	sh.puts.Add(nput)
	sh.dels.Add(ndel)
	sh.incrs.Add(nincr)
	sh.decrs.Add(ndecr)
	// Readers bump gets on every snapshot read; a batch without GETs
	// leaves that line alone.
	if nget > 0 {
		sh.gets.Add(nget)
	}
}

// ShardStats is one shard's instrumentation snapshot.
type ShardStats struct {
	Shard int
	// Operation counts (committed mutations and served reads/scans).
	Puts, Deletes, Gets, Scans uint64
	// Descents counts the point lookups the slot cache missed, each of
	// which walked the tree: Gets, queued GETs outside a copy-on-write
	// batch, and in-place slot resolution. On a read-mostly load
	// Gets − Descents is the cache's hits.
	Descents uint64
	// Counter mutations (acked Incr/Decr).
	Incrs, Decrs uint64
	// Group-commit shape.
	Batches, BatchedOps uint64
	// Aborted batches (shed load, e.g. pool exhaustion).
	Aborts uint64
	// Flush counters of the shard's persistence policy: async (overlapped,
	// mid-FASE evictions), drained (FASE-end stalls), barriers (empty
	// drains).
	AsyncFlushes, DrainedFlushes, Barriers int64
}

// AvgBatch returns the mean committed batch size.
func (st ShardStats) AvgBatch() float64 {
	if st.Batches == 0 {
		return 0
	}
	return float64(st.BatchedOps) / float64(st.Batches)
}

// Flushes returns all line flushes (async + drained).
func (st ShardStats) Flushes() int64 { return st.AsyncFlushes + st.DrainedFlushes }

// FlushRatio returns line flushes per committed mutation — the service-
// level analogue of the paper's Table III flush ratio; group commit lowers
// it by amortizing page copies and the FASE-end drain across the batch.
func (st ShardStats) FlushRatio() float64 {
	if st.BatchedOps == 0 {
		return 0
	}
	return float64(st.Flushes()) / float64(st.BatchedOps)
}

// Pairs returns every field as a `key=value` token, keys in sorted order.
// The key set is fixed, so STATS output is a stable, machine-diffable
// schema: internal/nvclient parses these tokens and internal/loadgen diffs
// two snapshots to report per-run server-side deltas in BENCH_*.json.
// Values are plain decimals.
func (st ShardStats) Pairs() []string {
	return []string{
		fmt.Sprintf("aborts=%d", st.Aborts),
		fmt.Sprintf("avg_batch=%.2f", st.AvgBatch()),
		fmt.Sprintf("batches=%d", st.Batches),
		fmt.Sprintf("decrs=%d", st.Decrs),
		fmt.Sprintf("dels=%d", st.Deletes),
		fmt.Sprintf("descents=%d", st.Descents),
		fmt.Sprintf("flush_async=%d", st.AsyncFlushes),
		fmt.Sprintf("flush_barriers=%d", st.Barriers),
		fmt.Sprintf("flush_drained=%d", st.DrainedFlushes),
		fmt.Sprintf("flush_ratio=%.3f", st.FlushRatio()),
		fmt.Sprintf("flushes=%d", st.Flushes()),
		fmt.Sprintf("gets=%d", st.Gets),
		fmt.Sprintf("incrs=%d", st.Incrs),
		fmt.Sprintf("ops=%d", st.BatchedOps),
		fmt.Sprintf("puts=%d", st.Puts),
		fmt.Sprintf("scans=%d", st.Scans),
	}
}

// String renders one STATS line: the row identifier (shard=N, or `total`
// for the aggregate) followed by the sorted Pairs.
func (st ShardStats) String() string {
	id := fmt.Sprintf("shard=%d", st.Shard)
	if st.Shard < 0 {
		id = "total"
	}
	return id + " " + strings.Join(st.Pairs(), " ")
}

func (sh *shard) stats() ShardStats {
	return ShardStats{
		Shard:      sh.id,
		Puts:       sh.puts.Load(),
		Deletes:    sh.dels.Load(),
		Incrs:      sh.incrs.Load(),
		Decrs:      sh.decrs.Load(),
		Gets:       sh.gets.Load(),
		Descents:   sh.descents.Load(),
		Scans:      sh.scans.Load(),
		Batches:    sh.batches.Load(),
		BatchedOps: sh.batchedOps.Load(),
		Aborts:     sh.aborts.Load(),

		AsyncFlushes:   sh.flushAsync.Load(),
		DrainedFlushes: sh.flushDrained.Load(),
		Barriers:       sh.flushBarriers.Load(),
	}
}

// Stats snapshots every shard's instrumentation.
func (s *Store) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.stats()
	}
	return out
}

// StripeStats snapshots the heap's per-stripe lock counters. A shard
// commit's store and flush path takes no stripe, so these count only
// durable reads and whole-heap operations, and a serving store reads zero
// acquisitions. Exported through the server's STATS verb.
func (s *Store) StripeStats() []pmem.StripeStat { return s.heap.StripeStats() }

// StripeSummary aggregates the heap's stripe counters.
func (s *Store) StripeSummary() pmem.StripeSummary {
	return pmem.SummarizeStripes(s.heap.StripeStats())
}

// Totals aggregates shard stats.
func Totals(stats []ShardStats) ShardStats {
	var t ShardStats
	t.Shard = -1
	for _, st := range stats {
		t.Puts += st.Puts
		t.Deletes += st.Deletes
		t.Incrs += st.Incrs
		t.Decrs += st.Decrs
		t.Gets += st.Gets
		t.Descents += st.Descents
		t.Scans += st.Scans
		t.Batches += st.Batches
		t.BatchedOps += st.BatchedOps
		t.Aborts += st.Aborts
		t.AsyncFlushes += st.AsyncFlushes
		t.DrainedFlushes += st.DrainedFlushes
		t.Barriers += st.Barriers
	}
	return t
}
