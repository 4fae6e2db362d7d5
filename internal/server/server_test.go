package server

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nvmcache/internal/kv"
	"nvmcache/internal/nvclient"
	"nvmcache/internal/pmem"
	"nvmcache/internal/proto"
)

func testServer(t *testing.T, opts Options) (*Server, *nvclient.Client) {
	t.Helper()
	kvOpts := kv.DefaultOptions()
	kvOpts.Shards = 2
	return testServerKV(t, kvOpts, opts)
}

func testServerKV(t *testing.T, kvOpts kv.Options, opts Options) (*Server, *nvclient.Client) {
	t.Helper()
	h := pmem.New(int(kv.RecommendedHeapBytes(kvOpts)))
	st, err := kv.Open(h, kvOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Start(st, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := nvclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return srv, cl
}

func TestProtocolEndToEnd(t *testing.T) {
	srv, cl := testServer(t, Options{})
	st := srv.Store()
	step := func(cmd, want string) {
		t.Helper()
		got, err := cl.Do(cmd)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if got != want {
			t.Fatalf("%s: got %q, want %q", cmd, got, want)
		}
	}
	step("PUT 1 100", "OK")
	step("GET 1", "VAL 100")
	step("GET 2", "NIL")
	step("PUT 18446744073709551615 7", "OK") // max uint64 key
	step("GET 18446744073709551615", "VAL 7")
	step("DEL 1", "OK")
	step("DEL 1", "NIL")
	step("GET 1", "NIL")

	if got, _ := cl.Do("PUT 1"); !strings.HasPrefix(got, "ERR usage: PUT") {
		t.Fatalf("arity error: %q", got)
	}
	if got, _ := cl.Do("PUT x y"); !strings.HasPrefix(got, "ERR usage: PUT") {
		t.Fatalf("parse error: %q", got)
	}
	if got, _ := cl.Do("FROB 1"); !strings.HasPrefix(got, "ERR unknown command") {
		t.Fatalf("unknown command: %q", got)
	}

	lines, err := cl.DoMulti("STATS", "END")
	if err != nil {
		t.Fatal(err)
	}
	shards := st.Shards()
	if len(lines) != shards+2 {
		t.Fatalf("STATS: %d lines, want %d shard lines + total + stripes", len(lines), shards+2)
	}
	for i := 0; i < shards; i++ {
		if !strings.HasPrefix(lines[i], "shard=") || !strings.Contains(lines[i], "flush_ratio=") {
			t.Fatalf("STATS shard line %q", lines[i])
		}
	}
	if !strings.HasPrefix(lines[shards], "total ") || !strings.Contains(lines[shards], "ops=4") {
		t.Fatalf("STATS total line %q", lines[shards]) // 2 puts + 2 dels committed
	}
	if !strings.HasPrefix(lines[shards+1], "stripes=") || !strings.Contains(lines[shards+1], "contention=") {
		t.Fatalf("STATS stripes line %q", lines[shards+1])
	}

	step("QUIT", "BYE")
	if _, err := cl.Do("GET 2"); err == nil {
		t.Fatal("connection survived QUIT")
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// The drained store still serves direct reads.
	if v, ok, err := st.Get(18446744073709551615); err != nil || !ok || v != 7 {
		t.Fatalf("Get after shutdown = %d,%v,%v", v, ok, err)
	}
}

func TestScanCommand(t *testing.T) {
	srv, cl := testServer(t, Options{})
	defer srv.Shutdown()
	// Write a contiguous key range, then scan it back. Keys are
	// hash-routed, so the scan only sees the subset in start's shard —
	// verify order and membership against the store directly.
	for k := uint64(100); k < 200; k++ {
		if err := cl.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	reply, err := cl.Do("SCAN 100 20")
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(reply)
	if len(fields) < 2 || fields[0] != "RANGE" {
		t.Fatalf("SCAN reply %q", reply)
	}
	want, err := srv.Store().Scan(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2+2*len(want) {
		t.Fatalf("SCAN returned %d fields, want %d pairs", len(fields), len(want))
	}
	var prev uint64
	for i, p := range want {
		if fields[2+2*i] != formatU(p.K) || fields[3+2*i] != formatU(p.V) {
			t.Fatalf("SCAN pair %d = %s/%s, want %d/%d", i, fields[2+2*i], fields[3+2*i], p.K, p.V)
		}
		if i > 0 && p.K <= prev {
			t.Fatalf("SCAN keys not ascending: %d after %d", p.K, prev)
		}
		prev = p.K
		if p.V != p.K*10 {
			t.Fatalf("SCAN value %d for key %d", p.V, p.K)
		}
	}
	// Scans are counted in STATS.
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total["scans"] < 1 {
		t.Fatalf("scans counter = %v, want >= 1", stats.Total["scans"])
	}
}

// TestCounterVerbs drives INCR/DECR through the protocol: post-op values,
// wrapping from a missing key, usage errors, the typed client calls and
// the STATS counters. The subtest keeps its name from when write
// absorption was an option; "absorb-off" is the plain read-modify-write
// path, the only one there is.
func TestCounterVerbs(t *testing.T) {
	t.Run("absorb-off", func(t *testing.T) {
		srv, cl := testServer(t, Options{})
		defer srv.Shutdown()
		step := func(cmd, want string) {
			t.Helper()
			got, err := cl.Do(cmd)
			if err != nil {
				t.Fatalf("%s: %v", cmd, err)
			}
			if got != want {
				t.Fatalf("%s: got %q, want %q", cmd, got, want)
			}
		}
		step("INCR 5 10", "VAL 10")
		step("INCR 5 1", "VAL 11")
		step("DECR 5 2", "VAL 9")
		step("GET 5", "VAL 9")
		step("DECR 6 1", "VAL 18446744073709551615") // wraps from missing=0
		if got, _ := cl.Do("INCR 5"); !strings.HasPrefix(got, "ERR usage: INCR") {
			t.Fatalf("arity error: %q", got)
		}
		if got, _ := cl.Do("DECR x 1"); !strings.HasPrefix(got, "ERR usage: DECR") {
			t.Fatalf("parse error: %q", got)
		}
		if v, err := cl.Incr(5, 1); err != nil || v != 10 {
			t.Fatalf("typed Incr = %d,%v", v, err)
		}
		if v, err := cl.Decr(5, 1); err != nil || v != 9 {
			t.Fatalf("typed Decr = %d,%v", v, err)
		}
		stats, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Total["incrs"] != 3 || stats.Total["decrs"] != 3 {
			t.Fatalf("counter stats: incrs=%v decrs=%v", stats.Total["incrs"], stats.Total["decrs"])
		}
	})
}

// TestStatsKeySchema pins the STATS wire schema that nvclient parses and
// loadgen diffs: every shard line and the total line carry exactly these
// keys, in this (sorted) order, whatever the counters hold.
func TestStatsKeySchema(t *testing.T) {
	want := "aborts avg_batch batches decrs dels descents " +
		"flush_async flush_barriers flush_drained flush_ratio flushes gets incrs ops puts scans"
	srv, cl := testServer(t, Options{})
	defer srv.Shutdown()
	for i := uint64(0); i < 10; i++ {
		if err := cl.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	lines, err := cl.DoMulti("STATS", "END")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) == 0 || (!strings.HasPrefix(fields[0], "shard=") && fields[0] != "total") {
			continue
		}
		keys := make([]string, 0, len(fields)-1)
		for _, f := range fields[1:] {
			k, _, ok := strings.Cut(f, "=")
			if !ok {
				t.Fatalf("token %q in %q is not key=value", f, line)
			}
			keys = append(keys, k)
		}
		if got := strings.Join(keys, " "); got != want {
			t.Errorf("%s keys:\n got %s\nwant %s", fields[0], got, want)
		}
		rows++
	}
	if rows != 3 {
		t.Fatalf("STATS had %d shard and total rows, want 3:\n%s", rows, strings.Join(lines, "\n"))
	}
}

// TestStallHook: in both dialects the Stall hook runs once per request,
// before the request executes, with the same verb name — a malformed
// request's verb too, and "?" for an unknown one — so a sleeping hook
// delays exactly the requests it names.
func TestStallHook(t *testing.T) {
	reqs := []parityStep{
		{text: "PUT 1 2", bin: proto.AppendPut(nil, 1, 2)},
		{text: "GET 1", bin: proto.AppendGet(nil, 1)},
		{text: "get x", bin: frameOf(proto.OpGet, nil)},
		{text: "MGET 1 2", bin: proto.AppendMGet(nil, []uint64{1, 2})},
		{text: "BOGUS 1", bin: frameOf(0x7f, nil)},
		{text: "STATS", bin: proto.AppendStats(nil)},
		{text: "QUIT", bin: proto.AppendQuit(nil)},
	}
	const want = "PUT GET GET MGET ? STATS QUIT"
	dialects(t, func(t *testing.T, binary bool) {
		var mu sync.Mutex
		var verbs []string
		srv, cl := testServer(t, Options{Stall: func(verb string) {
			mu.Lock()
			verbs = append(verbs, verb)
			mu.Unlock()
			if verb == "GET" {
				time.Sleep(5 * time.Millisecond)
			}
		}})
		defer srv.Shutdown()
		cl.Close()
		c, r := dialWindow(t, srv)
		defer c.Close()
		for _, req := range reqs {
			start := time.Now()
			exchange(t, c, r, binary, req)
			if d := time.Since(start); strings.EqualFold(req.text[:3], "GET") && d < 5*time.Millisecond {
				t.Errorf("%s: the stall hook did not delay it (%v)", req.text, d)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if got := strings.Join(verbs, " "); got != want {
			t.Errorf("stall hook saw %q, want %q", got, want)
		}
	})
}

// TestPipelinedWindow drives the server with the client's pipelined calls:
// a whole window of requests is sent in one flush and the replies come
// back in FIFO order.
func TestPipelinedWindow(t *testing.T) {
	srv, cl := testServer(t, Options{})
	defer srv.Shutdown()
	const n = 256
	for i := uint64(0); i < n; i++ {
		if err := cl.Send(formatPut(i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		reply, err := cl.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if reply != "OK" {
			t.Fatalf("pipelined PUT %d: %q", i, reply)
		}
	}
	for i := uint64(0); i < n; i++ {
		if v, ok, err := cl.Get(i); err != nil || !ok || v != i+1 {
			t.Fatalf("GET %d = %d,%v,%v", i, v, ok, err)
		}
	}
}

func formatU(v uint64) string      { return strconv.FormatUint(v, 10) }
func formatPut(k, v uint64) string { return "PUT " + formatU(k) + " " + formatU(v) }
