package faultinject

import (
	"errors"
	"fmt"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
)

// AtlasOptions shapes the single-threaded atlas exploration workload: a
// fixed sequence of FASEs, each overwriting one shared generation word and
// writing Words fresh private words. The workload is fully deterministic —
// the bump allocator reproduces the identical heap layout every run — so
// exhaustive mode can guarantee that site k of the enumeration fires on
// run k.
type AtlasOptions struct {
	// Policy and Config select the persistence technique under test.
	Policy core.PolicyKind
	Config core.Config
	// FASEs is how many failure-atomic sections the workload commits.
	FASEs int
	// Words is the number of private words each FASE stores.
	Words int
	// Middleware, when non-nil, wraps the sink between the policy and the
	// injection points (policy → middleware → injector → pmem). Negative
	// tests install DropDrains here to prove the engine catches a sink
	// that acknowledges drains it never performed.
	Middleware func(core.FlushSink) core.FlushSink
	// Pipeline additionally stacks a flush pipeline above the injection
	// sink (policy → pipeline → middleware → injector → pmem), adding the
	// hand-off, per-batch and epoch boundaries to the site space. The
	// pipeline runs in synchronous mode so enumeration stays deterministic.
	Pipeline bool
	// storeWord issues the workload's per-FASE word stores; nil means
	// Thread.Store64. Only the negative control for private stores sets it.
	storeWord func(th *atlas.Thread, addr, v uint64)
}

// DefaultAtlasOptions explores the paper's adaptive policy on a workload
// big enough to exercise cross-FASE overwrites but small enough that the
// exhaustive sweep stays cheap.
func DefaultAtlasOptions() AtlasOptions {
	return AtlasOptions{Policy: core.SoftCacheOnline, Config: core.DefaultConfig(), FASEs: 6, Words: 8}
}

func (o AtlasOptions) withDefaults() AtlasOptions {
	if o.FASEs <= 0 {
		o.FASEs = 6
	}
	if o.Words <= 0 {
		o.Words = 8
	}
	if o.Config == (core.Config{}) {
		// A zero Config would give the cache policies a zero-sized cache;
		// Eager/Lazy ignore it either way.
		o.Config = core.DefaultConfig()
	}
	return o
}

// wordValue is FASE f's value for private word w — distinct per (f, w) and
// never zero, so a missing or torn word is unmistakable.
func wordValue(f, w int) uint64 {
	return uint64(f)*1_000_003 + uint64(w)*7 + 0xA5A5
}

const atlasHeapBytes = 1 << 19

// errInjected marks a run that ended in a fired site (the expected way).
var errInjected = errors.New("faultinject: run crashed")

// atlasRun performs one deterministic workload run under inj. It returns
// the heap, the number of FASEs whose FASEEnd returned before the crash
// (all of them if no site fired), and errInjected if a site fired.
func atlasRun(opt AtlasOptions, inj *Injector) (h *pmem.Heap, completed int, err error) {
	h = pmem.New(atlasHeapBytes)
	dataBase, err := h.AllocLines(uint64(1+opt.FASEs*opt.Words) * 8)
	if err != nil {
		return nil, 0, fmt.Errorf("faultinject: alloc data region: %w", err)
	}
	h.SetRoot(dataBase)
	rt := atlas.NewRuntime(h, atlas.Options{
		Policy:       opt.Policy,
		Config:       opt.Config,
		LogEntries:   2 * (opt.Words + 2),
		DisableTrace: true,
		WrapSink: func(id int32, s core.FlushSink) core.FlushSink {
			s = inj.WrapSink(id, s)
			if opt.Middleware != nil {
				s = opt.Middleware(s)
			}
			return s
		},
		UndoHook: inj.UndoHook(),
		Pipeline: pipelineConfig(opt.Pipeline, inj),
	})
	th, err := rt.NewThread()
	if err != nil {
		return nil, 0, fmt.Errorf("faultinject: new thread: %w", err)
	}
	storeWord := opt.storeWord
	if storeWord == nil {
		storeWord = (*atlas.Thread).Store64
	}
	// Only the serving path is in the site space: enumeration starts after
	// setup so every site is one the replay deterministically revisits.
	inj.Enable()
	defer inj.Disable()
	err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if !IsCrash(r) {
					panic(r)
				}
				err = errInjected
			}
		}()
		for f := 1; f <= opt.FASEs; f++ {
			th.FASEBegin()
			for w := 0; w < opt.Words; w++ {
				addr := dataBase + uint64(1+(f-1)*opt.Words+w)*8
				storeWord(th, addr, wordValue(f, w))
			}
			th.Store64(dataBase, uint64(f)) // shared generation word
			th.FASEEnd()
			completed = f
		}
		return nil
	}()
	// The runtime is deliberately not closed: after a mid-FASE crash the
	// policy still holds pending lines, and a power failure gives it no
	// chance to drain them. Close would.
	return h, completed, err
}

// verifyAtlasPrefix checks that the post-recovery persistent state is
// exactly the prefix of the first `completed` FASEs: the generation word
// matches, every committed FASE's private words are intact, every later
// word is untouched, the heap is self-consistent, and no dirty lines
// linger. It returns the number of checks that passed.
func verifyAtlasPrefix(h *pmem.Heap, opt AtlasOptions, completed int) (int, error) {
	checks := 0
	dataBase := h.Root()
	if g := h.ReadUint64(dataBase); g != uint64(completed) {
		return checks, fmt.Errorf("generation word = %d, want %d complete FASEs", g, completed)
	}
	checks++
	for f := 1; f <= opt.FASEs; f++ {
		for w := 0; w < opt.Words; w++ {
			addr := dataBase + uint64(1+(f-1)*opt.Words+w)*8
			want := uint64(0)
			if f <= completed {
				want = wordValue(f, w)
			}
			if got := h.ReadUint64(addr); got != want {
				return checks, fmt.Errorf("FASE %d word %d = %#x, want %#x (prefix of %d FASEs)",
					f, w, got, want, completed)
			}
			checks++
		}
	}
	if err := h.CheckConsistency(); err != nil {
		return checks, err
	}
	checks++
	if n := h.DirtyCount(); n != 0 {
		return checks, fmt.Errorf("%d dirty lines after recovery", n)
	}
	checks++
	return checks, nil
}

// ExploreAtlas exhaustively explores every injection site of the atlas
// workload: one counting run to enumerate the boundaries, then one crash
// run per site, each followed by atlas.Recover and the prefix invariant.
// The first violated invariant aborts the sweep with an error naming the
// site and boundary kind.
func ExploreAtlas(opt AtlasOptions) (Report, error) {
	opt = opt.withDefaults()
	counter := NewCounting()
	_, completed, err := atlasRun(opt, counter)
	if err != nil {
		return Report{}, fmt.Errorf("faultinject: counting run: %w", err)
	}
	if completed != opt.FASEs {
		return Report{}, fmt.Errorf("faultinject: counting run completed %d/%d FASEs", completed, opt.FASEs)
	}
	rep := Report{Sites: counter.Sites(), Kinds: counter.Kinds()}
	for site := 0; site < rep.Sites; site++ {
		inj := NewArmed(site)
		h, completed, err := atlasRun(opt, inj)
		if !errors.Is(err, errInjected) {
			if err != nil {
				return rep, fmt.Errorf("faultinject: run %d: %w", site, err)
			}
			return rep, fmt.Errorf("faultinject: site %d never fired (%d sites enumerated; workload not deterministic?)",
				site, rep.Sites)
		}
		crash, _ := inj.Fired()
		h.Crash()
		rrep, err := atlas.Recover(h)
		if err != nil {
			return rep, fmt.Errorf("faultinject: recover after %v: %w", crash, err)
		}
		rep.FASEsRolledBack += rrep.FASEsRolledBack
		rep.WordsRestored += rrep.WordsRestored
		checks, err := verifyAtlasPrefix(h, opt, completed)
		rep.Checks += checks
		if err != nil {
			return rep, fmt.Errorf("faultinject: invariant violated after %v: %w", crash, err)
		}
		rep.Runs++
		rep.Crashes++
	}
	return rep, nil
}
