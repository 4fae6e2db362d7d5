package server

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nvmcache/internal/kv"
	"nvmcache/internal/nvclient"
	"nvmcache/internal/pmem"
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

// TestCounterVerbs drives INCR/DECR through the protocol, with absorption
// off (plain read-modify-write) and on (accumulator-deferred acks); the
// replies must be identical.
func TestCounterVerbs(t *testing.T) {
	for _, absorb := range []bool{false, true} {
		name := "absorb-off"
		if absorb {
			name = "absorb-on"
		}
		t.Run(name, func(t *testing.T) {
			kvOpts := kv.DefaultOptions()
			kvOpts.Shards = 2
			kvOpts.Absorb = kv.AbsorbConfig{Enabled: absorb, Threshold: 4, Deadline: 2 * time.Millisecond}
			srv, cl := testServerKV(t, kvOpts, Options{})
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
}

// TestStatsAbsorbKeysFixedSchema is the fixed-key-set regression for the
// absorption counters: a server with absorption off must still render the
// absorbed_*/committed_* keys (zero absorption, committed == mutations),
// and nvclient.ParseStats/Diff must handle them like any other key.
func TestStatsAbsorbKeysFixedSchema(t *testing.T) {
	srv, cl := testServer(t, Options{})
	defer srv.Shutdown()
	before, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"absorbed_ops", "committed_ops", "absorb_ratio",
		"absorb_commits_threshold", "absorb_commits_deadline",
		"incrs", "decrs",
	} {
		if _, ok := before.Total[key]; !ok {
			t.Fatalf("STATS total line missing %q on an absorption-off server", key)
		}
		for shard, kvmap := range before.Shards {
			if _, ok := kvmap[key]; !ok {
				t.Fatalf("STATS shard %d missing %q", shard, key)
			}
		}
	}
	for i := uint64(0); i < 10; i++ {
		if err := cl.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	after, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	d := after.Diff(before)
	if d["total.absorbed_ops"] != 0 {
		t.Fatalf("absorption-off server absorbed %v ops", d["total.absorbed_ops"])
	}
	if d["total.committed_ops"] != 10 || d["total.ops"] != 10 {
		t.Fatalf("committed=%v ops=%v, want 10/10", d["total.committed_ops"], d["total.ops"])
	}
	if after.Total["absorb_ratio"] != 0 {
		t.Fatalf("absorb_ratio = %v on an absorption-off server", after.Total["absorb_ratio"])
	}
}

func TestStallHook(t *testing.T) {
	var stalls atomic.Int64
	srv, cl := testServer(t, Options{Stall: func(verb string) {
		if verb == "GET" {
			stalls.Add(1)
			time.Sleep(5 * time.Millisecond)
		}
	}})
	defer srv.Shutdown()
	if err := cl.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := cl.Get(1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("stall hook did not delay the GET (%v)", d)
	}
	if stalls.Load() != 1 {
		t.Fatalf("stall hook ran %d times, want 1", stalls.Load())
	}
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
