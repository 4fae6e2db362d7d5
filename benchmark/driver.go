package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nvmcache/internal/kv"
	"nvmcache/internal/nvclient"
	"nvmcache/internal/pmem"
	"nvmcache/internal/proto"
	"nvmcache/internal/server"
)

const (
	windowOps      = 64 // outstanding ops per connection on put_window, get_window
	crashWindowOps = 16 // on crash_cycle
	preloadBatch   = 256
	replyTimeout   = 5 * time.Second
	// riderEvery paces get_window's lone PUTs: four a second per
	// connection cost ~1 % of its time today (a lone PUT waits out the
	// 2 ms batch timer), so GET throughput stays a read-path figure.
	riderEvery = 250 * time.Millisecond
	// openLoopRate is mixed_open's total arrival rate: about a quarter of
	// what the mixed workload sustains, so no backlog builds.
	openLoopRate = 400.0
)

// env is one booted serving stack: the shipped configuration behind a
// loopback listener, in this process.
type env struct {
	opts  kv.Options
	heap  *pmem.Heap
	store *kv.Store
	srv   *server.Server
	// crashing is set just before crash_cycle pulls the plug: errors seen
	// after that are the crash, not failures.
	crashing atomic.Bool
}

// boot starts the stack. crash_cycle needs to keep the heap across
// store generations and a larger one (every recovery allocates fresh undo
// logs), so it assembles by hand what SelfHost assembles for the others.
func boot(ownHeap bool) (*env, error) {
	e := &env{opts: kv.DefaultOptions()}
	var err error
	if ownHeap {
		heap := pmem.New(2 * int(kv.RecommendedHeapBytes(e.opts)))
		st, err := kv.Open(heap, e.opts)
		if err != nil {
			return nil, fmt.Errorf("opening store: %w", err)
		}
		if e.srv, err = server.Start(st, "127.0.0.1:0", server.Options{}); err != nil {
			st.Close()
			return nil, fmt.Errorf("starting server: %w", err)
		}
	} else if e.srv, err = server.SelfHost(e.opts, server.Options{}); err != nil {
		return nil, fmt.Errorf("self-hosting server: %w", err)
	}
	e.store = e.srv.Store()
	e.heap = e.store.Heap()
	return e, nil
}

// window is one pipelined batch of requests on a connection.
type window struct {
	n    int
	put  [windowOps]bool
	rank [windowOps]uint32
	val  [windowOps]uint64 // PUT: the value written; GET: the value expected
	// rider marks a window that rides along for checking and for the
	// other verb's latency; it is not counted in ops_s or cpu_us_per_op.
	rider bool
}

type putRecord struct {
	rank uint32
	val  uint64
}

// conn is one connection's driver state. Only its driver goroutines touch
// it; in the open loop the sender owns sent, seq, pos and attempted, the
// receiver the rest.
type conn struct {
	id    int
	env   *env
	cl    *nvclient.Client
	ranks []uint32 // pre-generated rank stream, cycled
	pos   int
	rng   *rand.Rand // open loop: arrival gaps and verb choice
	seq   uint64     // values written increase per connection
	sent  []uint64   // per rank: value of the newest PUT sent
	acked []uint64   // per rank: value of the newest PUT acknowledged
	// unacked lists PUTs that were sent but answered with an error or not
	// at all; after a crash each may or may not have become durable.
	unacked []putRecord
	// refused is set once a request was answered with an error, and cleared
	// when reconcile has re-read every key after a crash.
	refused bool

	win       window
	readBack  bool      // put_window: the next window reads the last one back
	nextRider time.Time // get_window: when the next lone PUT is due
	// Open loop: requests sent (the sender's count) and replies read (the
	// receiver's). Equal when a request is due, the connection is idle.
	sentOps uint64
	rcvdOps atomic.Uint64

	attempted, failed, wrong, crashAborted uint64
}

func (c *conn) nextRank() uint32 {
	r := c.ranks[c.pos]
	if c.pos++; c.pos == len(c.ranks) {
		c.pos = 0
	}
	return r
}

// fail books n operations that got an error reply or none.
func (c *conn) fail(n int) {
	if c.env.crashing.Load() {
		c.crashAborted += uint64(n)
	} else {
		c.failed += uint64(n)
	}
}

// check verifies one reply against what the connection itself wrote, and
// reports whether the operation was served (as opposed to refused).
func (c *conn) check(put bool, rank uint32, val uint64, op byte, payload []byte) bool {
	switch {
	case op == proto.RepErr:
		c.fail(1)
		c.refused = true
		if put {
			c.unacked = append(c.unacked, putRecord{rank, val})
		}
		return false
	case put && op == proto.RepOK:
		c.acked[rank] = val
	case !put && op == proto.RepVal:
		if got, err := proto.DecodeVal(payload); err != nil || got != val {
			if c.refused {
				// The value expected assumed every earlier PUT went
				// through; one did not (a store that is crashing refuses
				// PUTs while it still serves GETs from its last snapshot).
				c.fail(1)
				return false
			}
			c.wrong++
		}
	default:
		c.wrong++
	}
	return true
}

// preloadFrame writes the connection's keys of ranks base to
// base+preloadBatch-1 in one MPUT frame; keys and vals are scratch.
func (c *conn) preloadFrame(base int, keys, vals []uint64) error {
	for i := range keys {
		c.seq++
		keys[i], vals[i] = keyOf(uint32(base+i), c.id), c.seq
	}
	c.attempted += preloadBatch
	if err := c.cl.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
		return err
	}
	if err := c.cl.MPut(keys, vals); err != nil {
		c.failed += preloadBatch
		return fmt.Errorf("preload: %w", err)
	}
	for i := range keys {
		c.sent[base+i], c.acked[base+i] = vals[i], vals[i]
	}
	return nil
}

// recorder collects one connection's measurements over one phase.
type recorder struct {
	slices   *slices
	put, get hist   // latency over the whole phase, ns
	ops      uint64 // completed operations, riders excluded
	allOps   uint64
	// lonePut holds, in ns, the latency of every open-loop PUT that found
	// its connection idle: mixed_open's end-to-end latency is read from
	// these few thousand samples directly, not from a histogram.
	lonePut []float64

	traced                           bool
	encode, flush, wait, drain, late hist
	spans                            spanLog
}

func (r *recorder) merge(o *recorder) {
	r.slices.merge(o.slices)
	r.put.merge(&o.put)
	r.get.merge(&o.get)
	r.ops += o.ops
	r.allOps += o.allOps
	r.lonePut = append(r.lonePut, o.lonePut...)
	r.encode.merge(&o.encode)
	r.flush.merge(&o.flush)
	r.wait.merge(&o.wait)
	r.drain.merge(&o.drain)
	r.late.merge(&o.late)
}

// latency books the latency of puts PUTs and gets GETs completed at done.
func (r *recorder) latency(done time.Time, lat, puts, gets uint64) {
	r.put.addN(lat, puts)
	r.get.addN(lat, gets)
	if sl := r.slices.at(done); sl != nil {
		sl.put.addN(lat, puts)
		sl.get.addN(lat, gets)
	}
}

func ns(d time.Duration) uint64 {
	if d < 0 {
		return 0
	}
	return uint64(d)
}

// doWindow sends the connection's current window, flushes once, and reads
// and checks every reply. All of a window's replies arrive together (the
// server coalesces them into one write), so every operation in it is
// booked with the window's latency.
func (c *conn) doWindow(rec *recorder) error {
	w := &c.win
	var t [5]time.Time
	t[0] = time.Now()
	for i := 0; i < w.n; i++ {
		var err error
		if key := keyOf(w.rank[i], c.id); w.put[i] {
			err = c.cl.SendPut(key, w.val[i])
		} else {
			err = c.cl.SendGet(key)
		}
		if err != nil {
			return err
		}
	}
	if t[1] = t[0]; rec != nil && rec.traced {
		t[1] = time.Now()
	}
	c.attempted += uint64(w.n)
	if err := c.cl.Flush(); err != nil {
		c.fail(w.n)
		return err
	}
	t[2] = time.Now()
	if err := c.cl.SetReadDeadline(t[2].Add(replyTimeout)); err != nil {
		return err
	}
	t[3] = t[2]
	puts, gets := 0, 0
	for i := 0; i < w.n; i++ {
		op, payload, err := c.cl.RecvReply()
		if err != nil {
			c.fail(w.n - i)
			for ; i < w.n; i++ {
				if w.put[i] {
					c.unacked = append(c.unacked, putRecord{w.rank[i], w.val[i]})
				}
			}
			return err
		}
		if i == 0 && rec != nil && rec.traced {
			t[3] = time.Now()
		}
		if !c.check(w.put[i], w.rank[i], w.val[i], op, payload) {
			continue
		}
		if w.put[i] {
			puts++
		} else {
			gets++
		}
	}
	t[4] = time.Now()
	if rec == nil {
		return nil
	}

	rec.latency(t[4], ns(t[4].Sub(t[0])), uint64(puts), uint64(gets))
	rec.allOps += uint64(puts + gets)
	if !w.rider {
		rec.ops += uint64(puts + gets)
		rec.slices.addSpan(t[2], t[4], puts+gets)
	}
	if rec.traced {
		rec.encode.add(ns(t[1].Sub(t[0])) / uint64(w.n))
		rec.flush.add(ns(t[2].Sub(t[1])))
		rec.wait.add(ns(t[3].Sub(t[2])))
		rec.drain.add(ns(t[4].Sub(t[3])))
		rec.spans.add(windowSpan{ops: w.n, t: t})
	}
	return nil
}

// The fill functions build a connection's next window.

// fillPut alternates a window of PUTs to uniformly drawn keys with a
// read-back of the same keys, which checks read-your-writes exactly and
// costs about a thousandth of the PUT window's time.
func fillPut(c *conn, _ time.Time) {
	w := &c.win
	if c.readBack {
		for i := 0; i < w.n; i++ {
			w.put[i], w.val[i] = false, c.sent[w.rank[i]]
		}
		w.rider, c.readBack = true, false
		return
	}
	w.n, w.rider, c.readBack = windowOps, false, true
	for i := 0; i < w.n; i++ {
		r := c.nextRank()
		c.seq++
		w.put[i], w.rank[i], w.val[i] = true, r, c.seq
		c.sent[r] = c.seq
	}
}

// fillGet builds windows of GETs over Zipf-drawn keys and, every
// riderEvery, one lone PUT, so later GETs of that key must see it.
func fillGet(c *conn, now time.Time) {
	w := &c.win
	if !now.Before(c.nextRider) {
		c.nextRider = now.Add(riderEvery)
		r := c.nextRank()
		c.seq++
		w.n, w.rider = 1, true
		w.put[0], w.rank[0], w.val[0] = true, r, c.seq
		c.sent[r] = c.seq
		return
	}
	w.n, w.rider = windowOps, false
	for i := 0; i < w.n; i++ {
		r := c.nextRank()
		w.put[i], w.rank[i], w.val[i] = false, r, c.sent[r]
	}
}

// fillCrash pairs every PUT with a GET of the same key.
func fillCrash(c *conn, _ time.Time) {
	w := &c.win
	w.n, w.rider = crashWindowOps, false
	for i := 0; i < w.n; i += 2 {
		r := c.nextRank()
		c.seq++
		c.sent[r] = c.seq
		w.put[i], w.rank[i], w.val[i] = true, r, c.seq
		w.put[i+1], w.rank[i+1], w.val[i+1] = false, r, c.seq
	}
}

// closedLoop sends window after window until the deadline, each only after
// the previous one was answered in full. It stops early once a crash has
// been announced.
func (c *conn) closedLoop(fill func(*conn, time.Time), deadline time.Time, rec *recorder) error {
	for now := time.Now(); now.Before(deadline); now = time.Now() {
		fill(c, now)
		if err := c.doWindow(rec); err != nil {
			return err
		}
		if c.env.crashing.Load() {
			return nil
		}
	}
	return nil
}

// flight is one open-loop request between its sender and its receiver.
type flight struct {
	put  bool
	rank uint32
	val  uint64
	due  time.Time
	lone bool         // no earlier request on the connection was unanswered when this one was due
	t    [3]time.Time // start of encoding, end of encoding, flush returned
}

// openLoop sends single requests at Poisson arrival times, an independent
// process per connection, whether or not earlier requests were answered;
// one goroutine per connection reads the replies. Latency runs from the
// time a request was due, so a stall is charged to every request it
// delays. A single goroutine paces and sends for both connections: the
// pacer spins, and two spinners would occupy both of this machine's CPUs
// and delay the very replies being timed.
func (b *bench) openLoop(perConn float64, start, end time.Time, recs [numConns]*recorder) error {
	var flights [numConns]chan flight
	var due [numConns]time.Time
	errs := make([]error, numConns+1)
	var wg sync.WaitGroup
	for i, c := range b.conns {
		// The buffer bounds how many requests may be outstanding: far
		// more than the load builds at a quarter of capacity, and if it
		// ever filled, the sender would block and report it as lateness.
		flights[i] = make(chan flight, 1024)
		due[i] = start.Add(poissonGap(c.rng, perConn))
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			errs[i] = c.receive(flights[i], recs[i])
		}(i, c)
	}
	for {
		i := 0
		for j := range due {
			if due[j].Before(due[i]) {
				i = j
			}
		}
		if !due[i].Before(end) {
			break
		}
		c := b.conns[i]
		f, err := c.sendOne(due[i], recs[i])
		if err != nil {
			errs[numConns] = err
			break
		}
		flights[i] <- f
		due[i] = due[i].Add(poissonGap(c.rng, perConn))
	}
	for _, ch := range flights {
		close(ch)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sendOne waits until due, then sends one GET or PUT, chosen evenly.
func (c *conn) sendOne(due time.Time, rec *recorder) (flight, error) {
	f := flight{put: c.rng.Intn(2) == 0, rank: c.nextRank(), due: due}
	late := waitUntil(due)
	f.lone = c.sentOps == c.rcvdOps.Load()
	c.sentOps++
	f.t[0] = time.Now()
	var err error
	if key := keyOf(f.rank, c.id); f.put {
		c.seq++
		f.val, c.sent[f.rank] = c.seq, c.seq
		err = c.cl.SendPut(key, f.val)
	} else {
		f.val = c.sent[f.rank]
		err = c.cl.SendGet(key)
	}
	f.t[1] = time.Now()
	if err == nil {
		err = c.cl.Flush()
	}
	f.t[2] = time.Now()
	if err != nil {
		return f, err
	}
	c.attempted++
	if rec != nil {
		rec.late.add(ns(late))
	}
	return f, nil
}

// receive reads one reply per flight. After a connection error it keeps
// draining flights, as failed, so the sender never blocks on it.
func (c *conn) receive(flights <-chan flight, rec *recorder) error {
	var dead error
	for f := range flights {
		if dead != nil {
			c.failed++
			continue
		}
		err := c.cl.SetReadDeadline(time.Now().Add(replyTimeout))
		var op byte
		var payload []byte
		if err == nil {
			op, payload, err = c.cl.RecvReply()
		}
		c.rcvdOps.Add(1)
		if err != nil {
			dead = err
			c.failed++
			continue
		}
		done := time.Now()
		if !c.check(f.put, f.rank, f.val, op, payload) || rec == nil {
			continue
		}
		if lat := ns(done.Sub(f.due)); f.put {
			rec.latency(done, lat, 1, 0)
			if f.lone {
				rec.lonePut = append(rec.lonePut, float64(lat))
			}
		} else {
			rec.latency(done, lat, 0, 1)
		}
		rec.ops++
		rec.allOps++
		rec.slices.addSpan(done, done, 1)
		if rec.traced {
			rec.encode.add(ns(f.t[1].Sub(f.t[0])))
			rec.flush.add(ns(f.t[2].Sub(f.t[1])))
			rec.wait.add(ns(done.Sub(f.t[2])))
			rec.drain.add(0)
			rec.spans.add(windowSpan{ops: 1, late: f.t[0].Sub(f.due),
				t: [5]time.Time{f.t[0], f.t[1], f.t[2], done, done}})
		}
	}
	return dead
}

// bench is one run's state: the workload, its connections, and the stack
// they currently talk to.
type bench struct {
	cfg   config
	env   *env
	conns [numConns]*conn
}

func newBench(cfg config) *bench {
	b := &bench{cfg: cfg}
	for i := range b.conns {
		r := newRand(cfg.seed, streamRanks, i)
		c := &conn{id: i, rng: newRand(cfg.seed, streamOps, i),
			sent: make([]uint64, ranksPerConn), acked: make([]uint64, ranksPerConn)}
		if cfg.workload == "get_window" || cfg.workload == "mixed_open" {
			c.ranks = zipfRanks(r, streamLen)
		} else {
			c.ranks = uniformRanks(r, streamLen)
		}
		b.conns[i] = c
	}
	return b
}

func (b *bench) isCrash() bool { return b.cfg.workload == "crash_cycle" }

// eachConn runs fn for every connection concurrently and joins the errors.
func (b *bench) eachConn(fn func(c *conn) error) error {
	errs := make([]error, numConns)
	var wg sync.WaitGroup
	for i, c := range b.conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (b *bench) dial() error {
	for _, c := range b.conns {
		cl, err := nvclient.DialBinary(b.env.srv.Addr().String())
		if err != nil {
			return fmt.Errorf("dialing: %w", err)
		}
		c.cl, c.env = cl, b.env
	}
	return nil
}

func (b *bench) hangUp() {
	for _, c := range b.conns {
		if c.cl != nil {
			c.cl.Close()
			c.cl = nil
		}
	}
}

// setup boots the stack, dials and preloads every key, and returns how
// long that took.
func (b *bench) setup() (time.Duration, error) {
	start := time.Now()
	var err error
	if b.env, err = boot(b.isCrash()); err != nil {
		return 0, err
	}
	if err := b.dial(); err != nil {
		return 0, err
	}
	// One frame in flight at a time, the connections taking turns, so that
	// every shard applies the same writes in the same order in every run.
	// The online software cache sizes itself once, from the first 2^18
	// stores a shard's thread makes, and those fall in the preload: with
	// both connections preloading at once, the order and with it the chosen
	// size depended on timing: most runs flushed 20.8 lines per PUT, one
	// or two in ten 25.8. Taking turns, every run reads 25.8.
	keys, vals := make([]uint64, preloadBatch), make([]uint64, preloadBatch)
	for base := 0; base < ranksPerConn; base += preloadBatch {
		for _, c := range b.conns {
			if err := c.preloadFrame(base, keys, vals); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

func (b *bench) teardown() error {
	b.hangUp()
	if b.env == nil {
		return nil
	}
	err := b.env.srv.Shutdown()
	b.env = nil
	return err
}

// snap is what is read at both ends of a phase.
type snap struct {
	use     usage
	kv      kv.ShardStats
	stripes pmem.StripeSummary
	mallocs uint64
}

func (b *bench) snapshot(traced bool) snap {
	s := snap{use: getUsage(), kv: kv.Totals(b.env.store.Stats())}
	if traced {
		s.stripes = b.env.store.StripeSummary()
		s.mallocs = mallocs()
	}
	return s
}

// phase is the outcome of one stretch of driving: its slices, the merged
// recorders, and the counter deltas taken at its two ends.
type phase struct {
	start   time.Time
	elapsed time.Duration
	cpu     time.Duration
	slices  []slice
	rec     *recorder
	conns   [numConns]*recorder

	batches, batchedOps, aborts, flushes uint64
	stripeAcquired, stripeContended      int64
	mallocs                              uint64

	recoverMs  []float64
	rolledBack int
}

func (p *phase) addDelta(before, after snap) {
	p.cpu += after.use.cpu - before.use.cpu
	p.batches += after.kv.Batches - before.kv.Batches
	p.batchedOps += after.kv.BatchedOps - before.kv.BatchedOps
	p.aborts += after.kv.Aborts - before.kv.Aborts
	p.flushes += uint64(after.kv.Flushes() - before.kv.Flushes())
	p.stripeAcquired += after.stripes.Acquired - before.stripes.Acquired
	p.stripeContended += after.stripes.Contended - before.stripes.Contended
	p.mallocs += after.mallocs - before.mallocs
}

func newRecorders(start time.Time, width time.Duration, n int, traced bool) [numConns]*recorder {
	var recs [numConns]*recorder
	for i := range recs {
		recs[i] = &recorder{slices: newSlices(start, width, n), traced: traced}
	}
	return recs
}

// mergeRecorders folds the connections' recorders into one and returns its
// slices (still without their elapsed and CPU times).
func mergeRecorders(conns [numConns]*recorder) (*recorder, []slice) {
	sl := conns[0].slices
	all := &recorder{slices: newSlices(sl.start, sl.width, len(sl.s))}
	for _, r := range conns {
		all.merge(r)
	}
	return all, all.slices.s
}

// drive runs the workload's drivers for d, which is cut into one-second
// slices. With record false nothing is measured (warm-up).
func (b *bench) drive(d time.Duration, record, traced bool) (*phase, error) {
	before := b.snapshot(traced)
	p := &phase{start: time.Now()}
	n := int(d / time.Second)
	p.conns = newRecorders(p.start, time.Second, n, traced)
	end := p.start.Add(d)
	recs := p.conns
	if !record {
		recs = [numConns]*recorder{}
	}
	done := make(chan error, 1)
	go func() {
		switch b.cfg.workload {
		case "put_window":
			done <- b.eachConn(func(c *conn) error { return c.closedLoop(fillPut, end, recs[c.id]) })
		case "get_window":
			done <- b.eachConn(func(c *conn) error { return c.closedLoop(fillGet, end, recs[c.id]) })
		default:
			done <- b.openLoop(openLoopRate/numConns, p.start, end, recs)
		}
	}()
	// Meanwhile, read the process's CPU time at every slice boundary.
	cpuAt := make([]time.Duration, n+1)
	cpuAt[0] = before.use.cpu
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(p.start.Add(time.Duration(i) * time.Second)))
		cpuAt[i] = getUsage().cpu
	}
	err := <-done
	p.elapsed = time.Since(p.start)
	p.addDelta(before, b.snapshot(traced))
	p.rec, p.slices = mergeRecorders(p.conns)
	for i := range p.slices {
		p.slices[i].elapsed, p.slices[i].cpu = time.Second, cpuAt[i+1]-cpuAt[i]
	}
	return p, err
}

// crashCycles runs crash_cycle: serve for `each`, cut the power in the
// middle of whatever windows are in flight, recover on the same heap,
// check the recovered store against every acknowledged write, serve again.
// Every cycle is one slice. Recovery and redial time are part of its
// elapsed time; the checking is this benchmark's own work and is not.
func (b *bench) crashCycles(cycles int, each time.Duration, traced bool, res *result) (*phase, error) {
	p := &phase{start: time.Now()}
	// One recorder set for the whole phase (the traced run's spans and
	// whole-phase histograms), one slice per cycle filled in below.
	p.conns = newRecorders(p.start, time.Hour, 0, traced)
	for cycle := 0; cycle < cycles; cycle++ {
		e := b.env
		before := b.snapshot(traced)
		cycleStart := time.Now()
		for _, r := range p.conns {
			r.slices = newSlices(cycleStart, time.Hour, 1)
		}
		for _, c := range b.conns {
			c.unacked = c.unacked[:0]
		}
		served := make(chan error, 1)
		go func() {
			served <- b.eachConn(func(c *conn) error {
				return c.closedLoop(fillCrash, cycleStart.Add(time.Hour/2), p.conns[c.id])
			})
		}()
		time.Sleep(each)
		beforeCrash := b.snapshot(traced)
		e.crashing.Store(true)
		if err := e.store.Crash(); err != nil {
			return nil, fmt.Errorf("cycle %d: crash: %w", cycle, err)
		}
		// The store is crashed, so Shutdown's Close reports just that.
		if err := e.srv.Shutdown(); err != nil && !errors.Is(err, kv.ErrCrashed) {
			return nil, fmt.Errorf("cycle %d: shutdown: %w", cycle, err)
		}
		// Driver errors here are the connections dying with the server.
		<-served
		b.hangUp()

		recStart := time.Now()
		st, rep, err := kv.Recover(e.heap, e.opts)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: recover: %w", cycle, err)
		}
		recEnd := time.Now()
		p.recoverMs = append(p.recoverMs, float64(recEnd.Sub(recStart))/float64(time.Millisecond))
		p.rolledBack += rep.FASEsRolledBack

		useBefore := getUsage()
		if err := st.CheckInvariants(); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("cycle %d: invariants after recovery: %v", cycle, err))
		}
		for _, c := range b.conns {
			lost, err := c.reconcile(st)
			if err != nil {
				return nil, fmt.Errorf("cycle %d: reading back: %w", cycle, err)
			}
			res.ackedLost += lost
		}
		checkCPU := getUsage().cpu - useBefore.cpu
		checked := time.Now()

		srv, err := server.Start(st, "127.0.0.1:0", server.Options{})
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("cycle %d: restarting server: %w", cycle, err)
		}
		b.env = &env{opts: e.opts, heap: e.heap, store: st, srv: srv}
		if err := b.dial(); err != nil {
			return nil, err
		}
		// Counters die with the crashed store, so the serving stretch
		// gets its own delta; the CPU delta spans the whole cycle.
		cpuBefore := p.cpu
		p.addDelta(before, beforeCrash)
		p.cpu += getUsage().cpu - beforeCrash.use.cpu - checkCPU
		sl := slice{elapsed: time.Since(cycleStart) - checked.Sub(recEnd), cpu: p.cpu - cpuBefore}
		for _, r := range p.conns {
			sl.ops += r.slices.s[0].ops
			sl.put.merge(&r.slices.s[0].put)
			sl.get.merge(&r.slices.s[0].get)
			r.slices = newSlices(cycleStart, time.Hour, 0)
		}
		p.elapsed += sl.elapsed
		p.slices = append(p.slices, sl)
	}
	p.rec, _ = mergeRecorders(p.conns)
	return p, nil
}

// reconcile reads every key the connection owns straight from the
// recovered store. A key must hold the last acknowledged value, or a value
// whose PUT was in flight at the crash (durable but never acknowledged —
// allowed); anything else is a lost acknowledged write.
func (c *conn) reconcile(st *kv.Store) (lost uint64, err error) {
	for rank := range c.acked {
		got, ok, err := st.Get(keyOf(uint32(rank), c.id))
		if err != nil {
			return lost, err
		}
		if !ok || got != c.acked[rank] {
			inFlight := false
			for _, u := range c.unacked {
				if ok && int(u.rank) == rank && u.val == got && got > c.acked[rank] {
					inFlight = true
				}
			}
			if !inFlight {
				lost++
			}
		}
		// Later GETs are checked against what the store holds now.
		c.acked[rank], c.sent[rank] = got, got
	}
	c.refused = false
	return lost, nil
}
