package atlas

import (
	"fmt"
	"reflect"
	"testing"

	"nvmcache/internal/core"
	"nvmcache/internal/pmem"
	"nvmcache/internal/testutil"
	"nvmcache/internal/trace"
)

// eventSink records every call the policy makes on its sink, in order, and
// forwards it.
type eventSink struct {
	core.FlushSink
	events []string
}

func (s *eventSink) FlushLine(line trace.LineAddr) {
	s.events = append(s.events, fmt.Sprint("flush ", line))
	s.FlushSink.FlushLine(line)
}

func (s *eventSink) Drain(lines []trace.LineAddr) {
	s.events = append(s.events, fmt.Sprint("drain ", lines))
	s.FlushSink.Drain(lines)
}

// TestCopyPrivateRunsMatchWordLoop is the runtime half of the run-delivery
// proof: a thread copying pages with CopyPrivate, which announces one run
// per destination line, and a twin storing the same words one at a time
// with StorePrivate64 see the same FlushLine/Drain sequence, the same
// Stores() count, the same adaptation report and the same recorded trace —
// under every policy, with a 13-word sampler burst (so bursts end inside
// runs, and the cache resizes there), with and without a finite
// hibernation.
func TestCopyPrivateRunsMatchWordLoop(t *testing.T) {
	rng := testutil.Rand(t, 0x434f5059)
	type cp struct{ dst, src, n uint64 } // offsets into the private / source regions
	fases := make([][]cp, 60)
	for f := range fases {
		for c := 1 + rng.Intn(4); c > 0; c-- {
			fases[f] = append(fases[f], cp{dst: uint64(rng.Intn(4096)), src: uint64(rng.Intn(512)), n: 1 + uint64(rng.Intn(300))})
		}
	}
	type outcome struct {
		events []string
		stores int64
		report any
		trace  *trace.ThreadSeq
	}
	run := func(kind core.PolicyKind, cfg core.Config, words bool) outcome {
		sink := &eventSink{}
		opts := Options{Policy: kind, Config: cfg,
			WrapSink: func(_ int32, inner core.FlushSink) core.FlushSink {
				sink.FlushSink = inner
				return sink
			}}
		rt := NewRuntime(pmem.New(1<<20), opts)
		th, err := rt.NewThread()
		if err != nil {
			t.Fatal(err)
		}
		h := rt.Heap()
		root, _ := h.AllocLines(64)
		src, _ := h.AllocLines(1024)
		priv, _ := h.AllocLines(4096 + 512)
		th.SetRecording(false)
		th.FASEBegin()
		for w := uint64(0); w < 1024; w += 8 {
			th.Store64(src+w, w)
		}
		th.FASEEnd()
		th.SetRecording(true)
		for f, cps := range fases {
			th.FASEBegin()
			for _, c := range cps {
				dst, from := priv+c.dst, src+c.src
				if !words {
					th.CopyPrivate(dst, from, c.n)
					continue
				}
				for w := dst &^ 7; w < dst+c.n; w += 8 {
					th.StorePrivate64(w, th.Load64(from+(w-(dst&^7))))
				}
			}
			th.Store64(root, uint64(f))
			th.FASEEnd()
		}
		rt.Close()
		var report any
		if r, ok := th.Policy().(core.SizeReporter); ok {
			report = r.AdaptReport()
		}
		return outcome{sink.events, th.Stores(), report, rt.Trace().Threads[0]}
	}
	cfg := core.DefaultConfig()
	cfg.BurstLength = 13
	finite := cfg
	finite.Hibernation = 29
	for _, c := range []core.Config{cfg, finite} {
		for _, kind := range core.AllPolicyKinds() {
			name := fmt.Sprintf("%v, hibernation %d", kind, c.Hibernation)
			ref, got := run(kind, c, true), run(kind, c, false)
			if !reflect.DeepEqual(got.events, ref.events) {
				t.Errorf("%s: flush sequence differs from the word loop's", name)
			}
			if got.stores != ref.stores {
				t.Errorf("%s: Stores() = %d, word loop %d", name, got.stores, ref.stores)
			}
			if !reflect.DeepEqual(got.report, ref.report) {
				t.Errorf("%s: report %+v, word loop %+v", name, got.report, ref.report)
			}
			if !reflect.DeepEqual(got.trace, ref.trace) {
				t.Errorf("%s: recorded trace differs from the word loop's", name)
			}
		}
	}
}
