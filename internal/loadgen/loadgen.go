// Package loadgen is the open-loop load-generation subsystem for
// nvserver: the measurement substrate the roadmap's adaptive-sizing and
// absorption work is judged against.
//
// Open-loop means arrival-rate driven, not closed-loop: operations are
// sent on a fixed schedule (the intended send times), independent of how
// fast the server answers. A closed-loop client — send, wait, send — slows
// down exactly when the server does, so a stall silently thins the request
// stream and the measured percentiles miss the worst moments entirely
// (coordinated omission). Here every operation's latency is measured from
// its *intended* send time: if the server stalls 200ms, every operation
// scheduled during the stall reports the queueing delay it actually
// imposed on its (virtual) user, and the tail percentiles inflate the way
// a production SLO dashboard would. wrk2 and HdrHistogram established this
// discipline; FliT's bar — persistence overhead of a few instructions per
// op — is only demonstrable under a driver that cannot be gaslit by the
// server it measures.
//
// The driver fans the aggregate rate across N pipelined connections (one
// sender + one reader goroutine each, FIFO replies), draws operations from
// pluggable key/op distributions (uniform, zipf, churn, scan, and
// phase-changing schedules — see dist.go), records service time in an
// HDR-style log-bucketed histogram (hist.go), evaluates declared latency
// SLOs (slo.go), and emits a machine-readable BENCH_*.json artifact with
// server-side STATS deltas and git metadata (result.go).
package loadgen

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nvmcache/internal/nvclient"
	"nvmcache/internal/proto"
)

// Config declares one load run.
type Config struct {
	// Addr is the nvserver to drive.
	Addr string `json:"addr"`
	// Rate is the aggregate intended arrival rate, operations per second.
	Rate float64 `json:"rate_ops"`
	// Conns is the connection count the rate is spread across.
	Conns int `json:"conns"`
	// Duration is the length of the arrival schedule. The run ends when
	// every scheduled operation has been answered (or errored), so a
	// stalling server extends wall time, never thins the schedule.
	Duration time.Duration `json:"duration_ns"`
	// Ops, when >0, fixes the total operation count instead of Duration.
	Ops int `json:"ops,omitempty"`
	// Dist is the key/op distribution.
	Dist Spec `json:"dist"`
	// Seed derives every connection's private RNG.
	Seed int64 `json:"seed"`
	// Timeout bounds each reply; a reply slower than this kills its
	// connection and counts the remaining in-flight operations as errors.
	Timeout time.Duration `json:"timeout_ns,omitempty"`
	// Proto selects the wire protocol: "text" (default) or "binary". The
	// binary dialect pipelines length-prefixed frames over the same port
	// and is what the allocation-free hot path is measured through.
	Proto string `json:"proto,omitempty"`
	// Preload PUTs keys [0,Preload) before the measured window, so
	// read/scan mixes hit populated trees.
	Preload uint64 `json:"preload,omitempty"`
	// SLO, when non-nil, is evaluated into the report.
	SLO *SLO `json:"slo,omitempty"`
}

func (c Config) withDefaults() (Config, error) {
	if c.Addr == "" {
		return c, fmt.Errorf("loadgen: no server address")
	}
	if c.Rate <= 0 {
		return c, fmt.Errorf("loadgen: rate must be positive (open loop needs an arrival rate)")
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.Duration <= 0 && c.Ops <= 0 {
		return c, fmt.Errorf("loadgen: need -duration or -ops")
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	switch c.Proto {
	case "":
		c.Proto = "text"
	case "text", "binary":
	default:
		return c, fmt.Errorf("loadgen: unknown protocol %q (want text or binary)", c.Proto)
	}
	if c.Dist.Kind == "" && len(c.Dist.Phases) == 0 {
		c.Dist = DefaultSpec()
	}
	c.Dist = c.Dist.withDefaults()
	return c, nil
}

// PhaseReporter is implemented by generators that switch distribution
// mid-run (the phased schedules): Phase reports the index of the phase the
// most recent Next drew from, letting the driver attribute each operation's
// latency to the phase that issued it.
type PhaseReporter interface {
	Phase() int
}

// Report is one finished run.
type Report struct {
	Config    Config
	Hist      *Histogram
	Sent      int64
	Completed int64
	Errors    int64
	Timeouts  int64
	// PhaseHists split Hist by schedule phase for phased distributions
	// (nil otherwise); PhaseNames aligns with it. The per-phase tails are
	// what the adaptive experiments compare: an aggregate p99 averages the
	// phases together and hides exactly the transition the controller is
	// supposed to win.
	PhaseHists []*Histogram
	PhaseNames []string
	// Elapsed is wall time from the schedule's start to the last reply —
	// under a stall it exceeds the scheduled Duration (the backlog drains
	// late rather than being forgotten).
	Elapsed time.Duration
	// StatsBefore/StatsAfter bracket the run; ServerDelta is what the
	// server's total and stripes lines say of exactly this run
	// (nvclient.Stats.Diff): counter differences, and ratios recomputed
	// from them.
	StatsBefore, StatsAfter *nvclient.Stats
	ServerDelta             map[string]float64
	// SLO is the verdict on Config.SLO (nil when none was declared).
	SLO *SLOResult
}

// Throughput returns completed operations per wall-clock second.
func (r *Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// ErrorFrac returns the failed share of sent operations.
func (r *Report) ErrorFrac() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Errors+r.Timeouts) / float64(r.Sent)
}

// connState is one connection's tally; the sender and reader goroutines
// share it (reader owns hist/completed/errors, sender owns sent).
type connState struct {
	hist       Histogram
	phaseHists []Histogram // per-phase split, empty for single-phase runs
	sent       int64
	completed  int64
	errors     int64
	timeouts   int64
	failed     atomic.Bool // reader died; sender stops scheduling
}

// pendingOp is what the sender hands the reader per scheduled operation:
// the intended send time the latency is measured from, and the schedule
// phase the operation belongs to (-1 outside phased runs).
type pendingOp struct {
	intended time.Time
	phase    int
}

// startGrace is how far in the future the common schedule origin is
// placed, so every connection is dialed and parked before arrival 0.
const startGrace = 100 * time.Millisecond

// flushEvery bounds how many requests may sit in the client's write
// buffer while the sender catches up a backlog.
const flushEvery = 64

// Run executes the configured load against a live server and returns the
// merged report. The control connection (STATS snapshots, preload) is
// separate from the measured connections.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	dial := nvclient.Dial
	if cfg.Proto == "binary" {
		dial = nvclient.DialBinary
	}
	ctrl, err := dial(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("loadgen: control connection: %w", err)
	}
	defer ctrl.Close()
	if err := preload(ctrl, cfg.Preload); err != nil {
		return nil, fmt.Errorf("loadgen: preload: %w", err)
	}
	before, err := ctrl.Stats()
	if err != nil {
		return nil, fmt.Errorf("loadgen: STATS before: %w", err)
	}

	// Per-connection schedule: the aggregate rate splits evenly, and
	// connection c's arrivals are offset by c global periods so the merged
	// stream stays evenly spaced.
	interval := time.Duration(float64(cfg.Conns) / cfg.Rate * 1e9)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	perConn := cfg.Ops / cfg.Conns
	if cfg.Ops <= 0 {
		perConn = int(cfg.Duration / interval)
	}
	if perConn <= 0 {
		perConn = 1
	}
	origin := time.Now().Add(startGrace)

	nphases := len(cfg.Dist.Phases)
	states := make([]*connState, cfg.Conns)
	var wg sync.WaitGroup
	dialErrs := make(chan error, cfg.Conns)
	for c := 0; c < cfg.Conns; c++ {
		st := &connState{phaseHists: make([]Histogram, nphases)}
		states[c] = st
		gen, err := cfg.Dist.Generator(c, perConn, cfg.Seed)
		if err != nil {
			return nil, err
		}
		cl, err := dial(cfg.Addr)
		if err != nil {
			dialErrs <- fmt.Errorf("loadgen: conn %d: %w", c, err)
			continue
		}
		wg.Add(1)
		go func(c int, cl *nvclient.Client) {
			defer wg.Done()
			defer cl.Close()
			start := origin.Add(time.Duration(c) * time.Duration(float64(time.Second)/cfg.Rate))
			runConn(cl, gen, st, start, interval, perConn, cfg.Timeout)
		}(c, cl)
	}
	wg.Wait()
	select {
	case err := <-dialErrs:
		return nil, err
	default:
	}
	elapsed := time.Since(origin)

	after, err := ctrl.Stats()
	if err != nil {
		return nil, fmt.Errorf("loadgen: STATS after: %w", err)
	}
	rep := &Report{
		Config:      cfg,
		Hist:        &Histogram{},
		Elapsed:     elapsed,
		StatsBefore: before,
		StatsAfter:  after,
		ServerDelta: after.Diff(before),
	}
	if nphases > 0 {
		rep.PhaseHists = make([]*Histogram, nphases)
		rep.PhaseNames = make([]string, nphases)
		for i, p := range cfg.Dist.Phases {
			rep.PhaseHists[i] = &Histogram{}
			rep.PhaseNames[i] = p.Spec.Kind
		}
	}
	for _, st := range states {
		rep.Hist.Merge(&st.hist)
		for i := range st.phaseHists {
			rep.PhaseHists[i].Merge(&st.phaseHists[i])
		}
		rep.Sent += st.sent
		rep.Completed += st.completed
		rep.Errors += st.errors
		rep.Timeouts += st.timeouts
	}
	if cfg.SLO != nil {
		rep.SLO = cfg.SLO.Evaluate(rep)
	}
	return rep, nil
}

// runConn drives one connection: the sender issues requests at their
// intended times (never waiting for replies — the pipeline is the open
// loop), the reader matches FIFO replies to intended times and records
// latency from the *intended* send, which is what charges a server stall
// to every operation scheduled during it.
func runConn(cl *nvclient.Client, gen Generator, st *connState,
	start time.Time, interval time.Duration, n int, timeout time.Duration) {
	inflight := make(chan pendingOp, 1<<15)
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for p := range inflight {
			cl.SetReadDeadline(time.Now().Add(timeout))
			appErr, err := cl.RecvResult()
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					st.timeouts++
				} else {
					st.errors++
				}
				st.failed.Store(true)
				// Drain what the sender already scheduled: those
				// operations were sent (or about to be) and will never be
				// answered — they are errors, not omissions.
				for range inflight {
					st.errors++
				}
				return
			}
			if appErr {
				st.errors++
				continue
			}
			lat := time.Since(p.intended)
			st.hist.Record(lat)
			if p.phase >= 0 && p.phase < len(st.phaseHists) {
				st.phaseHists[p.phase].Record(lat)
			}
			st.completed++
		}
	}()

	pr, _ := gen.(PhaseReporter)
	unflushed := 0
	for i := 0; i < n && !st.failed.Load(); i++ {
		intended := start.Add(time.Duration(i) * interval)
		// On schedule: sleep to the intended time. Behind schedule (the
		// server stalled or the sender overslept): send immediately — the
		// backlog is real load, and intended stays the schedule time so
		// the latency measurement includes the delay.
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		op := gen.Next()
		phase := -1
		if pr != nil {
			phase = pr.Phase() // the phase Next just drew from
		}
		if err := sendOp(cl, op); err != nil {
			st.errors++
			break
		}
		st.sent++
		unflushed++
		// Flush when the next arrival is not yet due (the buffer would
		// otherwise just sit) or the catch-up batch has grown enough.
		if unflushed >= flushEvery || i == n-1 ||
			time.Until(start.Add(time.Duration(i+1)*interval)) > 0 {
			if err := cl.Flush(); err != nil {
				st.errors++
				break
			}
			unflushed = 0
		}
		inflight <- pendingOp{intended: intended, phase: phase}
	}
	cl.Flush()
	close(inflight)
	reader.Wait()
}

// sendOp stages one operation on the client's write buffer, rendering
// the line protocol or encoding a binary frame depending on the
// connection's dialect.
func sendOp(cl *nvclient.Client, op Op) error {
	if !cl.Binary() {
		return cl.Send(op.Line())
	}
	switch op.Kind {
	case OpGet:
		return cl.SendGet(op.Key)
	case OpPut:
		return cl.SendPut(op.Key, op.Val)
	case OpDel:
		return cl.SendDel(op.Key)
	case OpScan:
		return cl.SendScan(op.Key, uint32(op.N))
	case OpIncr:
		return cl.SendIncr(op.Key, op.Val)
	case OpDecr:
		return cl.SendDecr(op.Key, op.Val)
	case OpMGet:
		return cl.SendMGet(op.Keys)
	case OpMPut:
		return cl.SendMPut(op.Keys, op.Vals)
	}
	return fmt.Errorf("loadgen: no encoding for op kind %d", op.Kind)
}

// preload PUTs keys [0,n) before the measured run, batched through MPUT
// windows so population rides the store's group commit one shard-visit
// per window instead of one per key.
func preload(cl *nvclient.Client, n uint64) error {
	const window = proto.MaxOps
	keys := make([]uint64, 0, window)
	vals := make([]uint64, 0, window)
	for base := uint64(0); base < n; base += window {
		end := base + window
		if end > n {
			end = n
		}
		keys, vals = keys[:0], vals[:0]
		for k := base; k < end; k++ {
			keys = append(keys, k)
			vals = append(vals, k^0x5bd1e995)
		}
		if err := cl.MPut(keys, vals); err != nil {
			return fmt.Errorf("preload keys [%d,%d): %w", base, end, err)
		}
	}
	return nil
}
