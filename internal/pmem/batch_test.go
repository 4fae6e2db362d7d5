package pmem

import (
	"bytes"
	"testing"

	"nvmcache/internal/trace"
)

// TestFlushLinesBatchedLocking pins the batched flush path's two contracts:
// it persists exactly what per-line FlushLine calls would, and it takes each
// involved stripe lock at most once per batch however many of the batch's
// lines hash to it (the owner's per-line FlushLine takes none at all).
func TestFlushLinesBatchedLocking(t *testing.T) {
	const lines = 128
	mk := func() (*Heap, []trace.LineAddr) {
		h := New(1 << 20)
		base, err := h.AllocLines(lines * trace.LineSize)
		if err != nil {
			t.Fatal(err)
		}
		ls := make([]trace.LineAddr, lines)
		for i := range ls {
			addr := base + uint64(i)*trace.LineSize
			h.Store64(addr, uint64(i)+1)
			ls[i] = trace.LineOf(addr)
		}
		return h, ls
	}
	h1, ls1 := mk()
	for _, l := range ls1 {
		h1.FlushLine(l)
	}
	if n := SummarizeStripes(h1.StripeStats()).Acquired; n != 0 {
		t.Fatalf("per-line owner flushes acquired %d stripe locks, want 0", n)
	}

	h2, ls2 := mk()
	involved := make(map[*stripe]bool)
	for _, l := range ls2 {
		involved[h2.stripeOf(l)] = true
	}
	if len(involved) >= lines {
		t.Fatalf("%d lines over %d stripes: the batch shares no stripe, nothing to pin", lines, len(involved))
	}
	h2.FlushLines(ls2)
	stats := h2.StripeStats()
	for i, st := range stats {
		if st.Acquired > 1 {
			t.Fatalf("stripe %d acquired %d times by one batch", i, st.Acquired)
		}
	}
	if n := SummarizeStripes(stats).Acquired; n != int64(len(involved)) {
		t.Fatalf("batched flush acquired %d stripe locks, want one per involved stripe (%d)", n, len(involved))
	}

	for _, h := range []*Heap{h1, h2} {
		if n := h.DirtyCount(); n != 0 {
			t.Fatalf("%d dirty lines after flush", n)
		}
		if err := h.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(h1.persisted, h2.persisted) {
		t.Fatal("batched flush persisted different bytes than per-line flushes")
	}
	for i, l := range ls2 {
		if got := h2.PersistedUint64(l.ByteAddr()); got != uint64(i)+1 {
			t.Fatalf("line %d persisted %d, want %d", i, got, i+1)
		}
	}
}

// TestApplyCapturedSnapshots covers the capture seam the pipeline worker
// uses: ApplyBatch persists the snapshot taken at enqueue time, not the
// volatile contents at apply time — and the write-cache protocol's promise
// (a fresher capture follows any newer store) restores convergence.
func TestApplyCapturedSnapshots(t *testing.T) {
	h := New(1 << 20)
	base, err := h.AllocLines(trace.LineSize)
	if err != nil {
		t.Fatal(err)
	}
	line := trace.LineOf(base)
	snap := make([]byte, trace.LineSize)

	h.Store64(base, 111)
	h.CaptureLine(line, snap)
	h.Store64(base, 222) // newer store, not in the snapshot
	h.ApplyCaptured([]trace.LineAddr{line}, snap)
	if got := h.PersistedUint64(base); got != 111 {
		t.Fatalf("persisted %d, want the captured snapshot 111", got)
	}
	// The stale apply must not report the re-stored line clean: the capture
	// cleared its flag, the newer store set it again, the apply leaves it.
	if err := h.CheckConsistency(); err != nil {
		t.Fatalf("after a stale apply: %v", err)
	}
	if n := h.DirtyCount(); n != 1 {
		t.Fatalf("%d dirty lines after a stale apply, want the re-stored line", n)
	}
	// The fresher capture that the runtime guarantees will follow:
	h.CaptureLine(line, snap)
	h.ApplyCaptured([]trace.LineAddr{line}, snap)
	if got := h.PersistedUint64(base); got != 222 {
		t.Fatalf("persisted %d after fresh capture, want 222", got)
	}
	if n := h.DirtyCount(); n != 0 {
		t.Fatalf("%d dirty lines after apply", n)
	}
	if err := h.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
