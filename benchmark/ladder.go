package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/kv"
	"nvmcache/internal/mdb"
	"nvmcache/internal/nvclient"
	"nvmcache/internal/pmem"
	"nvmcache/internal/proto"
	"nvmcache/internal/server"
	"nvmcache/internal/trace"
)

// The ladder drives each layer directly, from outside, through its public
// functions, all on the key stream put_window uses for this seed. Each rung
// sits on the one below, so the cost a layer adds is the difference of two
// rungs (the *.self_* metrics).

const (
	ladderBatch = 64
	// ladderKeys is one shard's share of the preloaded key set: the size
	// of the tree an mdb rung works on.
	ladderKeys = numKeys / 4
	// arenaWords sizes the scratch region the pmem and atlas rungs store
	// into: 1 MiB, far more lines than any cache in the stack holds.
	arenaWords = 1 << 17
	// recordedPuts is how many single-put transactions are recorded to
	// get the line stream the core rungs replay.
	recordedPuts = 4096
)

type ladder struct {
	rung  time.Duration
	keys  []uint64 // put_window's key stream for connection 0
	pos   int
	epoch time.Time
	out   map[string]sample
	spans []jsonSpan
}

func (l *ladder) nextKey() uint64 {
	k := l.keys[l.pos]
	if l.pos++; l.pos == len(l.keys) {
		l.pos = 0
	}
	return k
}

// run repeats batch until the rung's time is used up. A batch makes n
// calls into the layer and returns how long it spent inside them, so a
// rung can keep its own set-up (flushing what it dirtied, say) out of the
// figure. The result is nanoseconds per call.
func (l *ladder) run(name string, batch func() (n int, busy time.Duration)) float64 {
	start := time.Now()
	var calls uint64
	var busy time.Duration
	for time.Since(start) < l.rung {
		n, d := batch()
		calls += uint64(n)
		busy += d
	}
	l.span(name, start, time.Now(), calls)
	per := float64(busy) / float64(calls)
	l.out[name] = sample{per, calls}
	return per
}

func (l *ladder) set(name string, v float64, n uint64) { l.out[name] = sample{v, n} }

// span records one rung as a span of the trace.
func (l *ladder) span(name string, start, end time.Time, calls uint64) {
	l.spans = append(l.spans, jsonSpan{ID: fmt.Sprintf("ladder:%d", len(l.spans)), Name: "ladder/" + name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)), Ops: int(calls)})
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runLadder measures every rung and returns the ladder metrics and one
// span per rung.
func runLadder(seed int64, rung time.Duration, epoch time.Time) (map[string]sample, []jsonSpan, error) {
	l := &ladder{rung: rung, epoch: epoch, out: make(map[string]sample)}
	for _, r := range uniformRanks(newRand(seed, streamRanks, 0), 1<<16) {
		l.keys = append(l.keys, keyOf(r, 0))
	}
	opts := kv.DefaultOptions()
	if err := l.pmemRungs(); err != nil {
		return nil, nil, fmt.Errorf("pmem rungs: %w", err)
	}
	if err := l.atlasRungs(opts); err != nil {
		return nil, nil, fmt.Errorf("atlas rungs: %w", err)
	}
	if err := l.mdbAndCoreRungs(opts); err != nil {
		return nil, nil, fmt.Errorf("mdb rungs: %w", err)
	}
	if err := l.kvRungs(opts); err != nil {
		return nil, nil, fmt.Errorf("kv rungs: %w", err)
	}
	l.protoRungs()
	if err := l.serverRungs(opts); err != nil {
		return nil, nil, fmt.Errorf("server rungs: %w", err)
	}

	v := func(name string) float64 { return l.out[name].value }
	l.set("atlas.self_store_ns", v("atlas.store64_ns")-v("pmem.store64_ns")-v("core.policy_store_ns"), 0)
	// A single-put transaction seen from atlas is one FASE of
	// put1_stores stores: the one-store FASE's fixed cost plus that many
	// stores.
	faseOfPut := v("atlas.fase1_ns") - v("atlas.store64_ns") + v("mdb.put1_stores")*v("atlas.store64_ns")
	l.set("mdb.self_put_ns", v("mdb.put1_ns")-faseOfPut, 0)
	l.set("kv.self_put_us", v("kv.put_c1_us")-v("mdb.put1_ns")/1e3, 0)
	l.set("server.self_get_us", v("server.rtt_get_w1_us")-(v("kv.get_ns")+v("proto.put_codec_ns")+v("proto.val_codec_ns"))/1e3, 0)
	return l.out, l.spans, nil
}

// arena allocates the scratch region and returns the address stream's
// mapping from key to word.
func arena(h *pmem.Heap) (func(key uint64) uint64, error) {
	base, err := h.AllocLines(arenaWords * 8 / trace.LineSize)
	if err != nil {
		return nil, err
	}
	return func(key uint64) uint64 { return base + (key*0x9e3779b1&(arenaWords-1))*8 }, nil
}

func (l *ladder) pmemRungs() error {
	h := pmem.New(arenaWords*8 + 1<<16)
	addr, err := arena(h)
	if err != nil {
		return err
	}
	var addrs [ladderBatch]uint64
	storeAndFlush := func() (stores, flushes time.Duration) {
		for i := range addrs {
			addrs[i] = addr(l.nextKey())
		}
		t0 := time.Now()
		for i, a := range addrs {
			h.Store64(a, uint64(i))
		}
		t1 := time.Now()
		for _, a := range addrs {
			h.FlushLine(trace.LineOf(a))
		}
		return t1.Sub(t0), time.Since(t1)
	}
	l.run("pmem.store64_ns", func() (int, time.Duration) {
		d, _ := storeAndFlush()
		return ladderBatch, d
	})
	l.run("pmem.flush_line_ns", func() (int, time.Duration) {
		_, d := storeAndFlush()
		return ladderBatch, d
	})
	return nil
}

// atlasOptions mirrors what kv hands its runtime for a shard thread.
func atlasOptions(o kv.Options, record bool) atlas.Options {
	return atlas.Options{Policy: o.Policy, Config: o.Config, LogEntries: o.LogEntries, DisableTrace: !record}
}

// pastSampling runs fase until the thread's online policy has finished its
// sampling burst and sized its cache, which a serving shard has long done.
func pastSampling(th *atlas.Thread, o kv.Options, fase func()) {
	for th.Stores() < 2*int64(o.Config.BurstLength) {
		fase()
	}
}

func (l *ladder) atlasRungs(o kv.Options) error {
	h := pmem.New(arenaWords*8 + 32*o.LogEntries + 1<<16)
	addr, err := arena(h)
	if err != nil {
		return err
	}
	th, err := atlas.NewRuntime(h, atlasOptions(o, false)).NewThread()
	if err != nil {
		return err
	}
	stores := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			th.Store64(addr(l.nextKey()), uint64(i))
		}
		return time.Since(t0)
	}
	pastSampling(th, o, func() {
		th.FASEBegin()
		stores(ladderBatch)
		th.FASEEnd()
	})

	l.run("atlas.store64_ns", func() (int, time.Duration) {
		th.FASEBegin()
		d := stores(ladderBatch)
		th.FASEEnd()
		return ladderBatch, d
	})
	fases := func(perFASE, n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			th.FASEBegin()
			for j := 0; j < perFASE; j++ {
				th.Store64(addr(l.nextKey()), uint64(j))
			}
			th.FASEEnd()
		}
		return time.Since(t0)
	}
	l.run("atlas.fase1_ns", func() (int, time.Duration) { return 16, fases(1, 16) })
	before := th.FlushStats().Total()
	l.run("atlas.fase64_ns", func() (int, time.Duration) { return 1, fases(ladderBatch, 1) })
	n := l.out["atlas.fase64_ns"].n
	l.set("atlas.fase64_flushes", float64(th.FlushStats().Total()-before)/float64(n), n)
	return nil
}

func (l *ladder) mdbAndCoreRungs(o kv.Options) error {
	h := pmem.New(int(kv.RecommendedHeapBytes(o)) / o.Shards * 2)
	rt := atlas.NewRuntime(h, atlasOptions(o, true))
	th, err := rt.NewThread()
	if err != nil {
		return err
	}
	th.SetRecording(false)
	db, err := mdb.Create(th, o.PoolPages)
	if err != nil {
		return err
	}
	var val uint64
	var putErr error
	txn := func(puts int, key func() uint64) {
		if err := db.Begin(); err != nil {
			putErr = err
			return
		}
		for i := 0; i < puts; i++ {
			val++
			if err := db.Put(key(), val); err != nil {
				putErr = err
			}
		}
		if err := db.Commit(); err != nil {
			putErr = err
		}
	}
	// Fill the tree with the first ladderKeys distinct keys of the stream.
	seen := make(map[uint64]bool, ladderKeys)
	var fill []uint64
	for _, k := range l.keys {
		if !seen[k] && len(fill) < ladderKeys {
			seen[k] = true
			fill = append(fill, k)
		}
	}
	l.keys, l.pos = fill, 0 // every later rung updates keys that exist
	for i := 0; i < len(fill); i += ladderBatch {
		txn(ladderBatch, l.nextKey)
	}
	pastSampling(th, o, func() { txn(ladderBatch, l.nextKey) })
	if putErr != nil {
		return putErr
	}

	// Record the line stream of single-put transactions for the core rungs.
	th.SetRecording(true)
	for i := 0; i < recordedPuts; i++ {
		txn(1, l.nextKey)
	}
	th.SetRecording(false)
	stream := rt.Trace().Threads[0]

	timedTxns := func(puts, txns int) time.Duration {
		t0 := time.Now()
		for i := 0; i < txns; i++ {
			txn(puts, l.nextKey)
		}
		return time.Since(t0)
	}
	stores, flushes := th.Stores(), th.FlushStats().Total()
	l.run("mdb.put1_ns", func() (int, time.Duration) { return 8, timedTxns(1, 8) })
	n := l.out["mdb.put1_ns"].n
	l.set("mdb.put1_stores", float64(th.Stores()-stores)/float64(n), n)
	l.set("mdb.put1_flushes", float64(th.FlushStats().Total()-flushes)/float64(n), n)
	flushes = th.FlushStats().Total()
	l.run("mdb.put64_ns", func() (int, time.Duration) { return ladderBatch, timedTxns(ladderBatch, 1) })
	n = l.out["mdb.put64_ns"].n
	l.set("mdb.put64_flushes", float64(th.FlushStats().Total()-flushes)/float64(n), n)
	if putErr != nil {
		return putErr
	}
	missing := 0
	l.run("mdb.get_ns", func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < ladderBatch; i++ {
			if _, ok := db.Get(l.nextKey()); !ok {
				missing++
			}
		}
		return ladderBatch, time.Since(t0)
	})
	if missing > 0 {
		return fmt.Errorf("mdb.Get missed %d keys that were put", missing)
	}
	l.coreRungs(o, stream)
	return nil
}

// coreRungs replays the recorded line stream, FASE by FASE, into the
// write cache alone and into the whole online policy over a sink that only
// counts.
func (l *ladder) coreRungs(o kv.Options, stream *trace.ThreadSeq) {
	fase := 0
	nextFASE := func() []trace.LineAddr {
		lines := stream.FASE(fase)
		if fase++; fase == stream.NumFASEs() {
			fase = 0
		}
		return lines
	}
	wc := core.NewWriteCache(o.Config.Knee.DefaultSize)
	var hits, accesses uint64
	l.run("core.wcache_access_ns", func() (int, time.Duration) {
		lines := nextFASE()
		t0 := time.Now()
		for _, line := range lines {
			if hit, _, _ := wc.Access(line); hit {
				hits++
			}
		}
		d := time.Since(t0)
		wc.Drain()
		accesses += uint64(len(lines))
		return len(lines), d
	})
	l.set("core.wcache_hit_frac", float64(hits)/float64(accesses), accesses)

	p := core.NewPolicy(o.Policy, o.Config, core.NewCountingSink(nil))
	replay := func() (int, time.Duration) {
		lines := nextFASE()
		p.FASEBegin()
		t0 := time.Now()
		for _, line := range lines {
			p.Store(line)
		}
		d := time.Since(t0)
		p.FASEEnd()
		return len(lines), d
	}
	for stored := 0; stored < 2*o.Config.BurstLength; {
		n, _ := replay()
		stored += n
	}
	l.run("core.policy_store_ns", replay)
}

func (l *ladder) kvRungs(o kv.Options) error {
	st, err := kv.Open(pmem.New(int(kv.RecommendedHeapBytes(o))), o)
	if err != nil {
		return err
	}
	defer st.Close()
	var val atomic.Uint64
	pairs := make([]kv.Pair, preloadBatch)
	for base := uint64(0); base < numKeys; base += preloadBatch {
		for i := range pairs {
			pairs[i] = kv.Pair{K: base + uint64(i), V: val.Add(1)}
		}
		if err := st.PutBatch(pairs); err != nil {
			return err
		}
	}

	var opErr atomic.Pointer[error]
	fail := func(err error) { opErr.CompareAndSwap(nil, &err) }
	l.run("kv.get_ns", func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < ladderBatch; i++ {
			if _, ok, err := st.Get(l.nextKey()); err != nil || !ok {
				fail(fmt.Errorf("kv.Get: found=%v err=%v", ok, err))
			}
		}
		return ladderBatch, time.Since(t0)
	})
	keys := make([]uint64, 16)
	vals := make([]uint64, 16)
	found := make([]bool, 16)
	l.run("kv.getbatch16_ns", func() (int, time.Duration) {
		for i := range keys {
			keys[i] = l.nextKey()
		}
		t0 := time.Now()
		if err := st.GetBatch(keys, vals, found); err != nil {
			fail(err)
		}
		return len(keys), time.Since(t0)
	})
	pairs = pairs[:ladderBatch]
	l.run("kv.putbatch64_ns", func() (int, time.Duration) {
		for i := range pairs {
			pairs[i] = kv.Pair{K: l.nextKey(), V: val.Add(1)}
		}
		t0 := time.Now()
		if err := st.PutBatch(pairs); err != nil {
			fail(err)
		}
		return len(pairs), time.Since(t0)
	})

	// callers goroutines each Put in a closed loop; the figure is wall
	// time per completed Put, in microseconds.
	putters := func(name string, callers int) {
		var ops atomic.Uint64
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(pos int) {
				defer wg.Done()
				for time.Since(start) < l.rung {
					if err := st.Put(l.keys[pos%len(l.keys)], val.Add(1)); err != nil {
						fail(err)
						return
					}
					pos++
					ops.Add(1)
				}
			}(g * len(l.keys) / callers)
		}
		wg.Wait()
		elapsed := time.Since(start)
		n := ops.Load()
		l.span(name, start, start.Add(elapsed), n)
		l.set(name, float64(elapsed)/float64(time.Microsecond)/float64(n), n)
	}
	before := mallocs()
	putters("kv.put_c1_us", 1)
	n := l.out["kv.put_c1_us"].n
	l.set("kv.put_allocs", float64(mallocs()-before)/float64(n), n)
	putters("kv.put_c2_us", 2)
	putters("kv.put_c128_us", 2*windowOps)
	if e := opErr.Load(); e != nil {
		return *e
	}
	return nil
}

func (l *ladder) protoRungs() {
	var buf, scratch []byte
	src := bytes.NewReader(nil)
	rd := bufio.NewReaderSize(src, 64<<10)
	var keys [ladderBatch]uint64
	bad := 0
	codec := func(encode func(buf []byte, k uint64) []byte, decode func(p []byte) (uint64, error)) func() (int, time.Duration) {
		return func() (int, time.Duration) {
			for i := range keys {
				keys[i] = l.nextKey()
			}
			t0 := time.Now()
			buf = buf[:0]
			for _, k := range keys {
				buf = encode(buf, k)
			}
			src.Reset(buf)
			rd.Reset(src)
			for _, k := range keys {
				_, payload, err := proto.ReadFrame(rd, &scratch)
				if err != nil {
					bad++
					continue
				}
				if got, err := decode(payload); err != nil || got != k {
					bad++
				}
			}
			return ladderBatch, time.Since(t0)
		}
	}
	before := mallocs()
	l.run("proto.put_codec_ns", codec(
		func(buf []byte, k uint64) []byte { return proto.AppendPut(buf, k, ^k) },
		func(p []byte) (uint64, error) {
			k, v, err := proto.DecodeKV(p)
			if v != ^k {
				k = ^k
			}
			return k, err
		}))
	l.run("proto.val_codec_ns", codec(proto.AppendVal, proto.DecodeVal))
	calls := l.out["proto.put_codec_ns"].n + l.out["proto.val_codec_ns"].n
	l.set("proto.codec_allocs", float64(mallocs()-before)/float64(calls), calls)
	if bad > 0 {
		// A codec that does not round-trip is a wrong answer, not a slow
		// one; the NaN makes the run fail where the metric is printed.
		l.set("proto.codec_allocs", math.NaN(), calls)
	}
}

func (l *ladder) serverRungs(o kv.Options) error {
	srv, err := server.SelfHost(o, server.Options{})
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	cl, err := nvclient.DialBinary(srv.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()
	keys := l.keys[:preloadBatch]
	if err := cl.MPut(keys, keys); err != nil {
		return err
	}
	var opErr error
	pos := 0
	roundTrip := func(put bool) func() (int, time.Duration) {
		return func() (int, time.Duration) {
			k := keys[pos%len(keys)]
			pos++
			t0 := time.Now()
			var err error
			if put {
				err = cl.SendPut(k, k)
			} else {
				err = cl.SendGet(k)
			}
			if err == nil {
				err = cl.Flush()
			}
			if err == nil {
				err = cl.SetReadDeadline(t0.Add(replyTimeout))
			}
			var op byte
			if err == nil {
				op, _, err = cl.RecvReply()
			}
			d := time.Since(t0)
			if err == nil && op == proto.RepErr {
				err = fmt.Errorf("server answered ERR")
			}
			if err != nil && opErr == nil {
				opErr = err
			}
			return 1, d
		}
	}
	for _, name := range []string{"server.rtt_get_w1_us", "server.rtt_put_w1_us"} {
		perCallNs := l.run(name, roundTrip(name == "server.rtt_put_w1_us"))
		l.set(name, perCallNs/1e3, l.out[name].n)
	}
	return opErr
}
