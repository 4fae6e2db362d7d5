package kv

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"nvmcache/internal/atlas"
	"nvmcache/internal/mdb"
	"nvmcache/internal/proto"
)

// TestLargestFASEFitsUndoLog derives DefaultOptions().LogEntries from the
// FASEs a shard runs. Every serving FASE logs exactly two words, the root
// and generation, even the largest one, proto.MaxOps pairs to one shard.
// The largest of all is Open's meta
// initialisation, and it logs exactly faseLoggedWords words, strictly
// fewer than the log holds, so none is dropped. Aborted (its page copies
// exhaust a small pool near the end), the largest serving FASE rolls back
// completely: the abort reports no dropped entry and the store reads
// exactly what was acked before.
func TestLargestFASEFitsUndoLog(t *testing.T) {
	pairs := make([]Pair, proto.MaxOps)
	for i := range pairs {
		pairs[i] = Pair{K: uint64(i), V: uint64(i) + 1}
	}
	var mu sync.Mutex // committers call the hook; the test reads after Close
	var (
		serving           bool  // Open has returned
		inFASE, maxLogged int   // words logged by the open FASE, and the most by any
		servingLogged     []int // words logged by each serving FASE
	)
	opts := DefaultOptions()
	opts.Shards = 1
	opts.UndoHook = func(op atlas.UndoOp) {
		mu.Lock()
		defer mu.Unlock()
		switch op {
		case atlas.UndoBegin:
			inFASE = 0
		case atlas.UndoRecord:
			if inFASE++; inFASE > maxLogged {
				maxLogged = inFASE
			}
		case atlas.UndoCommit:
			if serving {
				servingLogged = append(servingLogged, inFASE)
			}
		}
	}
	s := newStore(t, opts)
	mu.Lock()
	serving = true
	mu.Unlock()
	if err := s.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if st := Totals(s.Stats()); st.Batches != 1 || st.BatchedOps != proto.MaxOps {
		t.Fatalf("the %d pairs did not commit as one batch: %d batches, %d ops", proto.MaxOps, st.Batches, st.BatchedOps)
	}
	// An absent key: an Incr of a present one commits in place and logs
	// nothing.
	if _, err := s.Incr(proto.MaxOps+7, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(servingLogged) < 2 {
		t.Fatalf("saw %d serving FASEs, want the batch and the Incr", len(servingLogged))
	}
	for i, n := range servingLogged {
		if n != 2 {
			t.Errorf("serving FASE %d logged %d words, want 2 (root, generation)", i, n)
		}
	}
	if maxLogged != faseLoggedWords {
		t.Errorf("largest FASE logged %d words, faseLoggedWords = %d", maxLogged, faseLoggedWords)
	}
	if maxLogged >= opts.LogEntries {
		t.Errorf("largest FASE logged %d words into a %d-entry log: entries may have been dropped", maxLogged, opts.LogEntries)
	}

	opts.UndoHook = nil
	opts.PoolPages = 128 // a tree of proto.MaxOps keys needs more
	s = newStore(t, opts)
	if err := s.PutBatch(pairs[:64]); err != nil {
		t.Fatal(err)
	}
	err := s.PutBatch(pairs)
	if !errors.Is(err, mdb.ErrPoolExhausted) {
		t.Fatalf("oversized batch: %v, want pool exhaustion", err)
	}
	if strings.Contains(err.Error(), "abort:") {
		t.Fatalf("abort of the largest FASE was incomplete: %v", err)
	}
	if st := Totals(s.Stats()); st.Aborts != 1 {
		t.Fatalf("aborts = %d, want 1", st.Aborts)
	}
	for i, p := range pairs {
		v, ok, err := s.Get(p.K)
		if err != nil || ok != (i < 64) || (ok && v != p.V) {
			t.Fatalf("Get(%d) = %d, %v, %v after the aborted batch", p.K, v, ok, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
