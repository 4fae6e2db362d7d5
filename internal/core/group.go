package core

import (
	"sync"

	"nvmcache/internal/trace"
)

// Thread-grouped adaptation implements the extension Section III-C leaves
// as future work: "we could group threads with similar write locality and
// calculate one MRC for each group". One leader thread samples its burst,
// computes the MRC and selects the capacity; every follower in the group
// picks the published size up at its next FASE boundary. The group pays
// one analysis instead of N, at the cost of assuming the members share
// write locality (true for SPMD programs like SPLASH2, where every thread
// executes the same slice shape).

// GroupSize is the shared size channel between a leader and its followers.
// The zero value is ready to use.
type GroupSize struct {
	mu     sync.Mutex
	size   int
	round  int // bumped on every leader adaptation
	leader AdaptReport
}

// publish records the leader's selection.
func (g *GroupSize) publish(size int, rep AdaptReport) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.size = size
	g.round++
	g.leader = rep
}

// current returns the latest selection and its round (0 = none yet).
func (g *GroupSize) current() (size, round int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.size, g.round
}

// LeaderReport returns the leader's adaptation report.
func (g *GroupSize) LeaderReport() AdaptReport {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leader
}

// groupLeaderPolicy is an online software cache that publishes every
// adaptation to the group.
type groupLeaderPolicy struct {
	*softCachePolicy
	group *GroupSize
}

func (p *groupLeaderPolicy) Store(line trace.LineAddr) {
	before := p.report.Adaptations
	p.softCachePolicy.Store(line)
	if p.report.Adaptations != before {
		p.group.publish(p.report.ChosenSize, p.report)
	}
}

// StoreRun must not be the embedded policy's, which would adapt without
// publishing.
func (p *groupLeaderPolicy) StoreRun(line trace.LineAddr, n int) {
	if !p.countsWords() {
		n = 1
	}
	for ; n > 0; n-- {
		p.Store(line)
	}
}

func (p *groupLeaderPolicy) Finish() {
	before := p.report.Adaptations
	p.softCachePolicy.Finish()
	if p.report.Adaptations != before {
		p.group.publish(p.report.ChosenSize, p.report)
	}
}

// groupFollowerPolicy is a software cache without a sampler; it adopts the
// group's published size at FASE boundaries (resizing mid-FASE would
// interleave extra evictions into the section for no benefit).
type groupFollowerPolicy struct {
	sink    FlushSink
	cache   *WriteCache
	group   *GroupSize
	seen    int // last adopted round
	initial int
}

func (p *groupFollowerPolicy) Kind() PolicyKind { return SoftCacheOnline }

func (p *groupFollowerPolicy) Store(line trace.LineAddr) {
	if _, evicted, has := p.cache.Access(line); has {
		p.sink.FlushLine(evicted)
	}
}

// StoreRun is one Store: the follower has no sampler, and the repeats are
// hits at index 0.
func (p *groupFollowerPolicy) StoreRun(line trace.LineAddr, _ int) { p.Store(line) }

func (p *groupFollowerPolicy) FASEBegin() {
	if size, round := p.group.current(); round != p.seen {
		p.seen = round
		for _, line := range p.cache.Resize(size) {
			p.sink.FlushLine(line)
		}
	}
}

func (p *groupFollowerPolicy) FASEEnd() {
	if lines := p.cache.Drain(); len(lines) > 0 {
		p.sink.Drain(lines)
	}
}

func (p *groupFollowerPolicy) Finish() { p.FASEEnd() }

// AdaptReport implements SizeReporter: a follower reports the size it
// adopted and no analysis cost of its own.
func (p *groupFollowerPolicy) AdaptReport() AdaptReport {
	return AdaptReport{
		Online:      true,
		Adapted:     p.seen > 0,
		InitialSize: p.initial,
		ChosenSize:  p.cache.Capacity(),
	}
}

// NewGroupedPolicies builds one leader plus n-1 follower policies sharing
// a single MRC analysis, one per thread of a locality-homogeneous group.
// sinks[i] is thread i's flush sink (thread 0 is the leader).
func NewGroupedPolicies(cfg Config, sinks []FlushSink) []Policy {
	group := &GroupSize{}
	out := make([]Policy, len(sinks))
	for i, f := range sinks {
		if i == 0 {
			out[i] = &groupLeaderPolicy{
				softCachePolicy: newSoftCachePolicy(cfg, f, true),
				group:           group,
			}
			continue
		}
		size := cfg.Knee.DefaultSize
		if size <= 0 {
			size = 8
		}
		out[i] = &groupFollowerPolicy{
			sink:    f,
			cache:   NewWriteCache(size),
			group:   group,
			initial: size,
		}
	}
	return out
}
