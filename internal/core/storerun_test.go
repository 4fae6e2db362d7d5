package core

import (
	"reflect"
	"slices"
	"testing"

	"nvmcache/internal/testutil"
	"nvmcache/internal/trace"
)

// flushEvent is one call a policy made on its sink: a FlushLine (one line)
// or a Drain (its lines, possibly none).
type flushEvent struct {
	drain bool
	lines []trace.LineAddr
}

// eventSink records every sink call in order.
type eventSink struct {
	CountingSink
	events []flushEvent
}

func (s *eventSink) FlushLine(line trace.LineAddr) {
	s.CountingSink.FlushLine(line)
	s.events = append(s.events, flushEvent{lines: []trace.LineAddr{line}})
}

func (s *eventSink) Drain(lines []trace.LineAddr) {
	s.CountingSink.Drain(lines)
	s.events = append(s.events, flushEvent{drain: true, lines: slices.Clone(lines)})
}

// storeRun is n consecutive stores to one line.
type storeRun struct {
	line trace.LineAddr
	n    int
}

// runFASEs is a stream of FASEs of runs. The first run is 20 words long,
// so the first 13-word burst of the online sampler ends inside it; the
// rest are random.
func runFASEs(t *testing.T) [][]storeRun {
	rng := testutil.Rand(t, 0x52554e)
	fases := [][]storeRun{{{line: 3, n: 20}, {line: 4, n: 2}}}
	for len(fases) < 80 {
		var f []storeRun
		for r := 1 + rng.Intn(12); r > 0; r-- {
			f = append(f, storeRun{line: trace.LineAddr(rng.Intn(40)), n: 1 + rng.Intn(8)})
		}
		fases = append(fases, f)
	}
	return fases
}

// TestStoreRunMatchesStoreLoop proves run delivery is the word loop in
// fewer calls: for every policy kind and for a grouped leader and
// follower, StoreRun(line, n) and n Store(line) calls produce the same
// FlushLine/Drain sequence, the same adaptation report and the same cache
// size — with an online sampler burst (13 words) ending inside a run, a
// finite hibernation that wakes the sampler mid-stream, and capacity
// shrinks requested for FASE end.
func TestStoreRunMatchesStoreLoop(t *testing.T) {
	fases := runFASEs(t)
	base := DefaultConfig()
	base.BurstLength = 13
	finite := base
	finite.Hibernation = 29
	// drive feeds the stream to one thread's policies, word by word or as
	// runs, shrinking the capacity at some FASE ends.
	drive := func(ps []Policy, perWord bool) {
		for f, runs := range fases {
			for _, p := range ps {
				p.FASEBegin()
				for _, r := range runs {
					if perWord {
						for range r.n {
							p.Store(r.line)
						}
					} else {
						p.StoreRun(r.line, r.n)
					}
				}
				if cc, ok := p.(CapacityControlled); ok && f%9 == 4 {
					cc.RequestCapacity(1 + f%3)
				}
				p.FASEEnd()
			}
		}
		for _, p := range ps {
			p.Finish()
		}
	}
	type variant struct {
		name  string
		build func(cfg Config, sinks []FlushSink) []Policy
	}
	variants := []variant{{"group", NewGroupedPolicies}}
	for _, kind := range AllPolicyKinds() {
		variants = append(variants, variant{kind.String(), func(cfg Config, sinks []FlushSink) []Policy {
			return []Policy{NewPolicy(kind, cfg, sinks[0])}
		}})
	}
	for _, cfg := range []Config{base, finite} {
		for _, v := range variants {
			var reports [2][]any
			var sinks [2][]*eventSink
			for side, perWord := range []bool{true, false} {
				s := []*eventSink{{}, {}}
				ps := v.build(cfg, []FlushSink{s[0], s[1]})
				drive(ps, perWord)
				sinks[side] = s
				for _, p := range ps {
					if r, ok := p.(SizeReporter); ok {
						reports[side] = append(reports[side], r.AdaptReport())
					}
					if cc, ok := p.(CapacityControlled); ok {
						reports[side] = append(reports[side], cc.CacheSize())
					}
				}
			}
			name := v.name
			if cfg.Hibernation > 0 {
				name += ", finite hibernation"
			}
			for i := range sinks[0] {
				if !reflect.DeepEqual(sinks[0][i].events, sinks[1][i].events) {
					t.Errorf("%s: thread %d flush sequence differs between Store loop and StoreRun", name, i)
				}
			}
			if !reflect.DeepEqual(reports[0], reports[1]) {
				t.Errorf("%s: Store loop reports %+v, StoreRun %+v", name, reports[0], reports[1])
			}
			if len(reports[0]) == 0 {
				continue
			}
			want := 1 // the burst ending inside the first run
			if cfg.Hibernation > 0 {
				want = 2 // and at least one after a wake-up
			}
			if rep := reports[0][0].(AdaptReport); rep.Online && rep.Adaptations < want {
				t.Errorf("%s: %d adaptations: the stream did not exercise the sampler", name, rep.Adaptations)
			}
		}
	}
}
