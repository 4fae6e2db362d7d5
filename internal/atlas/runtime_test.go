package atlas

import (
	"nvmcache/internal/testutil"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
)

func newTestRuntime(t *testing.T, kind core.PolicyKind) (*Runtime, *Thread) {
	t.Helper()
	h := pmem.New(1 << 20)
	opts := DefaultOptions()
	opts.Policy = kind
	rt := NewRuntime(h, opts)
	th, err := rt.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	return rt, th
}

func TestStoreLoadRoundTrip(t *testing.T) {
	rt, th := newTestRuntime(t, core.SoftCacheOnline)
	a, _ := rt.Heap().Alloc(16)
	th.FASEBegin()
	th.Store64(a, 123)
	th.StoreBytes(a+8, []byte{1, 2, 3})
	th.FASEEnd()
	if th.Load64(a) != 123 {
		t.Fatal("Store64 lost")
	}
	if b := th.LoadBytes(a+8, 3); b[0] != 1 || b[2] != 3 {
		t.Fatalf("StoreBytes lost: %v", b)
	}
}

func TestCommittedFASESurvivesCrash(t *testing.T) {
	for _, kind := range []core.PolicyKind{core.Eager, core.Lazy, core.AtlasTable, core.SoftCacheOnline, core.SoftCacheOffline} {
		rt, th := newTestRuntime(t, kind)
		h := rt.Heap()
		a, _ := h.Alloc(8)
		th.FASEBegin()
		th.Store64(a, 77)
		th.FASEEnd()
		h.Crash()
		if _, err := Recover(h); err != nil {
			t.Fatalf("%v: recover: %v", kind, err)
		}
		if got := h.ReadUint64(a); got != 77 {
			t.Errorf("%v: committed FASE lost in crash: %d", kind, got)
		}
	}
}

func TestBestPolicyIsUnsound(t *testing.T) {
	// BEST never flushes: a crash after FASE end must lose the write.
	// This is the negative control for the soundness tests above.
	rt, th := newTestRuntime(t, core.Best)
	h := rt.Heap()
	a, _ := h.Alloc(8)
	th.FASEBegin()
	th.Store64(a, 77)
	th.FASEEnd()
	h.Crash()
	if _, err := Recover(h); err != nil {
		t.Fatal(err)
	}
	if got := h.ReadUint64(a); got == 77 {
		t.Fatal("BEST persisted data — it should not have")
	}
}

func TestCrashMidFASERollsBack(t *testing.T) {
	rt, th := newTestRuntime(t, core.SoftCacheOnline)
	h := rt.Heap()
	a, _ := h.Alloc(24)
	// Establish a committed baseline.
	th.FASEBegin()
	th.Store64(a, 1)
	th.Store64(a+8, 2)
	th.FASEEnd()
	// Crash mid-FASE.
	th.FASEBegin()
	th.Store64(a, 100)
	th.Store64(a+16, 300)
	h.Crash()
	rep, err := Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FASEsRolledBack != 1 {
		t.Fatalf("rolled back %d FASEs, want 1", rep.FASEsRolledBack)
	}
	if got := h.ReadUint64(a); got != 1 {
		t.Errorf("a = %d, want pre-FASE 1", got)
	}
	if got := h.ReadUint64(a + 8); got != 2 {
		t.Errorf("a+8 = %d, want 2", got)
	}
	if got := h.ReadUint64(a + 16); got != 0 {
		t.Errorf("a+16 = %d, want rolled back to 0", got)
	}
}

func TestCrashMidFASEWithPartialFlushes(t *testing.T) {
	// Eager flushes data immediately, so at the crash the new values ARE
	// in NVRAM — recovery must still roll them back.
	rt, th := newTestRuntime(t, core.Eager)
	h := rt.Heap()
	a, _ := h.Alloc(8)
	th.FASEBegin()
	th.Store64(a, 5)
	th.FASEEnd()
	th.FASEBegin()
	th.Store64(a, 99) // eagerly flushed
	h.Crash()
	if _, err := Recover(h); err != nil {
		t.Fatal(err)
	}
	if got := h.ReadUint64(a); got != 5 {
		t.Fatalf("a = %d, want rollback to 5 despite eager flush", got)
	}
}

func TestRecoverIdempotent(t *testing.T) {
	rt, th := newTestRuntime(t, core.Lazy)
	h := rt.Heap()
	a, _ := h.Alloc(8)
	th.FASEBegin()
	th.Store64(a, 9)
	h.Crash()
	if _, err := Recover(h); err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FASEsRolledBack != 0 {
		t.Fatal("second recovery rolled back again")
	}
}

func TestRecoverFreshHeapNoop(t *testing.T) {
	rep, err := Recover(pmem.New(4096))
	if err != nil || rep.LogsScanned != 0 {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
}

func TestNestedFASEIsOneSection(t *testing.T) {
	rt, th := newTestRuntime(t, core.Lazy)
	h := rt.Heap()
	a, _ := h.Alloc(8)
	th.FASEBegin()
	th.Store64(a, 1)
	th.FASEBegin() // nested
	th.Store64(a, 2)
	th.FASEEnd() // inner end: must NOT commit
	h.Crash()
	if _, err := Recover(h); err != nil {
		t.Fatal(err)
	}
	if got := h.ReadUint64(a); got != 0 {
		t.Fatalf("nested inner end committed early: a=%d, want 0", got)
	}
}

func TestStoreOutsideFASEIsSingleton(t *testing.T) {
	rt, th := newTestRuntime(t, core.SoftCacheOnline)
	h := rt.Heap()
	a, _ := h.Alloc(8)
	th.Store64(a, 42) // implicit FASE: immediately durable
	h.Crash()
	if _, err := Recover(h); err != nil {
		t.Fatal(err)
	}
	if got := h.ReadUint64(a); got != 42 {
		t.Fatalf("out-of-FASE store not durable: %d", got)
	}
}

func TestTraceRecording(t *testing.T) {
	rt, th := newTestRuntime(t, core.SoftCacheOnline)
	h := rt.Heap()
	a, _ := h.AllocLines(128)
	th.FASEBegin()
	th.Store64(a, 1)
	th.Store64(a+64, 2)
	th.FASEEnd()
	th.Store64(a, 3)
	rt.Close()
	tr := rt.Trace()
	if len(tr.Threads) != 1 {
		t.Fatalf("threads: %d", len(tr.Threads))
	}
	s := tr.Threads[0]
	if s.NumFASEs() != 2 || s.NumWrites() != 3 {
		t.Fatalf("FASEs=%d writes=%d", s.NumFASEs(), s.NumWrites())
	}
	if th.Stores() != 3 {
		t.Errorf("Stores = %d", th.Stores())
	}
}

func TestStoreBytesSpanningLines(t *testing.T) {
	rt, th := newTestRuntime(t, core.Lazy)
	h := rt.Heap()
	a, _ := h.AllocLines(192)
	th.FASEBegin()
	th.StoreBytes(a+60, make([]byte, 8)) // spans two lines
	th.FASEEnd()
	rt.Close()
	if got := rt.Trace().Threads[0].NumWrites(); got != 2 {
		t.Fatalf("line-spanning store recorded %d writes, want 2", got)
	}
}

func TestFlushStatsEagerRatio(t *testing.T) {
	rt, th := newTestRuntime(t, core.Eager)
	h := rt.Heap()
	a, _ := h.AllocLines(64)
	th.FASEBegin()
	for i := 0; i < 10; i++ {
		th.Store64(a, uint64(i))
	}
	th.FASEEnd()
	st := rt.FlushStats()
	if st.Async != 10 {
		t.Fatalf("eager async flushes = %d, want 10", st.Async)
	}
}

func TestConcurrentThreads(t *testing.T) {
	h := pmem.New(1 << 23)
	rt := NewRuntime(h, DefaultOptions())
	const nThreads = 4
	addrs := make([]uint64, nThreads)
	for i := range addrs {
		addrs[i], _ = h.AllocLines(256)
	}
	var wg sync.WaitGroup
	for i := 0; i < nThreads; i++ {
		th, err := rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(th *Thread, base uint64) {
			defer wg.Done()
			for f := 0; f < 50; f++ {
				th.FASEBegin()
				for w := 0; w < 4; w++ {
					th.Store64(base+uint64(w)*8, uint64(f*w))
				}
				th.FASEEnd()
			}
		}(th, addrs[i])
	}
	wg.Wait()
	rt.Close()
	tr := rt.Trace()
	if len(tr.Threads) != nThreads {
		t.Fatalf("trace threads = %d", len(tr.Threads))
	}
	for _, s := range tr.Threads {
		if s.NumFASEs() != 50 {
			t.Errorf("thread %d: %d FASEs", s.Thread, s.NumFASEs())
		}
	}
}

// Crash consistency (DESIGN.md invariant 6): at any crash point, recovery
// restores exactly the state as of the last completed FASE. A shadow model
// tracks the expected committed state.
func TestQuickCrashConsistency(t *testing.T) {
	kinds := []core.PolicyKind{core.Eager, core.Lazy, core.AtlasTable, core.SoftCacheOnline}
	f := func(seed int64, kindIdx uint8) bool {
		rng := testutil.Rand(t, seed)
		kind := kinds[int(kindIdx)%len(kinds)]
		h := pmem.New(1 << 20)
		opts := DefaultOptions()
		opts.Policy = kind
		opts.Config.BurstLength = 32
		rt := NewRuntime(h, opts)
		th, err := rt.NewThread()
		if err != nil {
			return false
		}
		const words = 32
		base, _ := h.AllocLines(words * 8)
		committed := make([]uint64, words) // shadow of last committed state
		pending := make([]uint64, words)
		copy(pending, committed)

		crashAfter := rng.Intn(60)
		step := 0
		crashed := false
	outer:
		for f := 0; f < 10 && !crashed; f++ {
			th.FASEBegin()
			nw := 1 + rng.Intn(8)
			for w := 0; w < nw; w++ {
				idx := rng.Intn(words)
				val := rng.Uint64()
				th.Store64(base+uint64(idx)*8, val)
				pending[idx] = val
				step++
				if step >= crashAfter {
					crashed = true
					h.Crash()
					break outer
				}
			}
			th.FASEEnd()
			copy(committed, pending)
		}
		if !crashed {
			h.Crash() // crash after a clean boundary
		}
		if _, err := Recover(h); err != nil {
			return false
		}
		for i := 0; i < words; i++ {
			if h.ReadUint64(base+uint64(i)*8) != committed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPrivateStores pins the contract of StorePrivate64 and CopyPrivate at
// the runtime's own level: no undo record; the store events of the
// word-by-word Store64 loop, one per destination word (an unaligned copy
// counts the words it overlaps); drained and durable at FASE end; and after
// a crash or an abort the block's contents are whatever they are while the
// logged word that published it is back to its pre-image. Outside a FASE
// both panic.
func TestPrivateStores(t *testing.T) {
	records := 0
	newRT := func() (*Runtime, *Thread, uint64) {
		opts := DefaultOptions()
		opts.Events = func(site Site, _ int, _ uint64) {
			if site == SiteUndoRecord {
				records++
			}
		}
		rt := NewRuntime(pmem.New(1<<20), opts)
		th, err := rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		a, err := rt.Heap().AllocLines(5 * 64)
		if err != nil {
			t.Fatal(err)
		}
		return rt, th, a
	}
	// Layout: a = the logged root word (a line of its own), a+64.. = a
	// committed source block, a+192.. = the private block.
	const words = 13
	fill := func(th *Thread, a uint64) {
		th.FASEBegin()
		for i := uint64(0); i < words; i++ {
			th.Store64(a+64+8*i, 100+i)
		}
		th.FASEEnd()
	}

	rt, th, a := newRT()
	fill(th, a)
	ref, rth, ra := newRT()
	fill(rth, ra)
	if a != ra {
		t.Fatalf("twin runtimes diverge: %d vs %d", a, ra)
	}
	records = 0
	th.FASEBegin()
	th.CopyPrivate(a+192, a+64, 8*words)
	th.CopyPrivate(a+192+3, a+64+1, 6) // unaligned: overlaps words 0 and 1
	th.StorePrivate64(a+192+8*words, 7)
	if records != 0 {
		t.Fatalf("private stores recorded %d undo entries", records)
	}
	th.Store64(a, a+192) // publish
	th.FASEEnd()
	if records != 1 {
		t.Fatalf("FASE recorded %d undo entries, want 1 (the publishing word)", records)
	}
	rth.FASEBegin()
	for i := uint64(0); i < words; i++ {
		rth.Store64(a+192+8*i, rth.Load64(a+64+8*i))
	}
	rth.Store64(a+192, th.Load64(a+192)) // the two words the unaligned copy overlaps
	rth.Store64(a+200, th.Load64(a+200))
	rth.Store64(a+192+8*words, 7)
	rth.Store64(a, a+192)
	rth.FASEEnd()
	if th.Stores() != rth.Stores() || th.FlushStats() != rth.FlushStats() {
		t.Fatalf("stores, flushes = %d, %+v; Store64 loop %d, %+v", th.Stores(), th.FlushStats(), rth.Stores(), rth.FlushStats())
	}
	rt.Close()
	ref.Close()
	if !reflect.DeepEqual(rt.Trace().Threads[0], ref.Trace().Threads[0]) {
		t.Fatal("store-event stream differs from the Store64 loop's")
	}
	h := rt.Heap()
	if n := h.DirtyCount(); n != 0 {
		t.Fatalf("%d lines dirty after FASE end", n)
	}
	for off := uint64(0); off <= 8*words; off += 8 {
		if got, want := h.PersistedUint64(a+192+off), ref.Heap().PersistedUint64(a+192+off); got != want {
			t.Fatalf("durable word +%d = %#x, Store64 loop %#x", off, got, want)
		}
	}

	// Rollback, by abort and by crash under a policy that flushes every
	// store at once: the publishing word returns, completely.
	th.FASEBegin()
	th.CopyPrivate(a+192, a+64+8, 8*(words-1))
	th.Store64(a, 0xdead)
	if err := th.FASEAbort(); err != nil {
		t.Fatalf("abort incomplete: %v", err)
	}
	if got := th.Load64(a); got != a+192 {
		t.Fatalf("root after abort = %#x, want %#x", got, a+192)
	}
	ert, eth := newTestRuntime(t, core.Eager)
	eh := ert.Heap()
	b, _ := eh.AllocLines(128)
	eth.FASEBegin()
	eth.StorePrivate64(b+64, 9) // reaches NVRAM at once
	eth.Store64(b, b+64)
	eh.Crash()
	if _, err := Recover(eh); err != nil {
		t.Fatal(err)
	}
	if got := eh.ReadUint64(b); got != 0 {
		t.Fatalf("root after crash = %#x, want the block unpublished", got)
	}

	_, idle := newTestRuntime(t, core.Lazy)
	for name, f := range map[string]func(){
		"StorePrivate64": func() { idle.StorePrivate64(b+64, 1) },
		"CopyPrivate":    func() { idle.CopyPrivate(b+64, b, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s outside a FASE did not panic", name)
				}
			}()
			f()
		}()
	}
}
