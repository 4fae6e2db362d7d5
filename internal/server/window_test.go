package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nvmcache/internal/kv"
	"nvmcache/internal/pmem"
	"nvmcache/internal/proto"
)

// wireOp is one request of a scripted window, rendered in either dialect.
type wireOp struct {
	verb string // PUT, GET, DEL, INCR
	k, v uint64
}

func encodeWindow(binary bool, ops []wireOp) []byte {
	var b []byte
	for _, op := range ops {
		switch {
		case binary && op.verb == "PUT":
			b = proto.AppendPut(b, op.k, op.v)
		case binary && op.verb == "GET":
			b = proto.AppendGet(b, op.k)
		case binary && op.verb == "DEL":
			b = proto.AppendDel(b, op.k)
		case binary && op.verb == "INCR":
			b = proto.AppendIncr(b, op.k, op.v)
		case op.verb == "PUT", op.verb == "INCR":
			b = fmt.Appendf(b, "%s %d %d\n", op.verb, op.k, op.v)
		default:
			b = fmt.Appendf(b, "%s %d\n", op.verb, op.k)
		}
	}
	return b
}

// readReplies reads n replies off the connection and renders each as the
// text protocol would ("OK", "NIL", "VAL 7", "ERR ..."), so one expectation
// serves both dialects.
func readReplies(t *testing.T, binary bool, r *bufio.Reader, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	var scratch []byte
	for i := 0; i < n; i++ {
		if !binary {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("reply %d of %d: %v (got %q)", i, n, err, out)
			}
			out = append(out, strings.TrimSuffix(line, "\n"))
			continue
		}
		op, p, err := proto.ReadFrame(r, &scratch)
		if err != nil {
			t.Fatalf("reply frame %d of %d: %v (got %q)", i, n, err, out)
		}
		switch op {
		case proto.RepOK:
			out = append(out, "OK")
		case proto.RepNil:
			out = append(out, "NIL")
		case proto.RepVal:
			v, err := proto.DecodeVal(p)
			if err != nil {
				t.Fatalf("reply frame %d: %v", i, err)
			}
			out = append(out, fmt.Sprintf("VAL %d", v))
		case proto.RepErr:
			out = append(out, "ERR "+string(p))
		default:
			t.Fatalf("reply frame %d: unexpected opcode %d", i, op)
		}
	}
	return out
}

// otherShardKey returns a key routed to a different shard than k.
func otherShardKey(st *kv.Store, k uint64) uint64 {
	for c := k + 1; ; c++ {
		if st.ShardFor(c) != st.ShardFor(k) {
			return c
		}
	}
}

func dialects(t *testing.T, run func(t *testing.T, binary bool)) {
	t.Run("text", func(t *testing.T) { run(t, false) })
	t.Run("binary", func(t *testing.T) { run(t, true) })
}

// TestWindowOrdering sends one pipelined window that interleaves writes and
// reads of one key (and a read on another shard) in a single client write:
// every read must observe exactly the writes before it, and the replies
// must come back in request order.
func TestWindowOrdering(t *testing.T) {
	dialects(t, func(t *testing.T, binary bool) {
		srv, cl := testServer(t, Options{})
		defer srv.Shutdown()
		cl.Close()
		st := srv.Store()
		const k = 7
		other := otherShardKey(st, k)
		if err := st.Put(other, 99); err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewReader(c)
		for round := uint64(0); round < 50; round++ {
			a, b := 2*round+1, 2*round+2
			ops := []wireOp{
				{"PUT", k, a}, {"GET", k, 0}, {"PUT", k, b}, {"GET", k, 0},
				{"GET", other, 0}, {"DEL", k, 0}, {"GET", k, 0},
			}
			if _, err := c.Write(encodeWindow(binary, ops)); err != nil {
				t.Fatal(err)
			}
			want := []string{"OK", fmt.Sprintf("VAL %d", a), "OK", fmt.Sprintf("VAL %d", b),
				"VAL 99", "OK", "NIL"}
			got := readReplies(t, binary, r, len(ops))
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("round %d: replies %q, want %q", round, got, want)
			}
		}
	})
}

// TestWindowSameKeyPutGetPutGet: the window PUT k v1, GET k, PUT k v2,
// GET k answers OK, VAL v1, OK, VAL v2, whoever commits it. Two
// connections have such a window in flight at once, each on its own key of
// one shard, so a window's requests are often committed by the other
// connection's wait; each starts on an absent key (copy-on-write inserts)
// and goes on overwriting it in place.
func TestWindowSameKeyPutGetPutGet(t *testing.T) {
	dialects(t, func(t *testing.T, binary bool) {
		kvOpts := kv.DefaultOptions()
		kvOpts.Shards = 1
		srv, cl := testServerKV(t, kvOpts, Options{})
		defer srv.Shutdown()
		cl.Close()
		var conns [2]net.Conn
		var readers [2]*bufio.Reader
		for i := range conns {
			c, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Second))
			conns[i], readers[i] = c, bufio.NewReader(c)
		}
		for round := uint64(0); round < 200; round++ {
			v1, v2 := 2*round+1, 2*round+2
			for i, c := range conns {
				k := 100 + uint64(i)
				ops := []wireOp{{"PUT", k, v1}, {"GET", k, 0}, {"PUT", k, v2}, {"GET", k, 0}}
				if _, err := c.Write(encodeWindow(binary, ops)); err != nil {
					t.Fatal(err)
				}
			}
			want := []string{"OK", fmt.Sprintf("VAL %d", v1), "OK", fmt.Sprintf("VAL %d", v2)}
			for i, r := range readers {
				if got := readReplies(t, binary, r, len(want)); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("connection %d round %d: replies %q, want %q", i, round, got, want)
				}
			}
		}
	})
}

// TestWindowGetNeverSeesLaterPut: a GET decoded ahead of a PUT to the same
// key in one window answers with the value before that PUT, even though the
// PUT is submitted while the GET's reply is still waiting its turn.
func TestWindowGetNeverSeesLaterPut(t *testing.T) {
	dialects(t, func(t *testing.T, binary bool) {
		srv, cl := testServer(t, Options{})
		defer srv.Shutdown()
		cl.Close()
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewReader(c)
		const keys = 32
		// Window i: for every key, [GET k, PUT k i+1]. Each GET must read what
		// window i-1 wrote (i), never this window's i+1; an unrelated leading
		// PUT keeps the window non-empty so the GET replies are held back.
		for i := uint64(0); i < 20; i++ {
			ops := []wireOp{{"PUT", 1 << 40, i}}
			for k := uint64(0); k < keys; k++ {
				ops = append(ops, wireOp{"GET", k, 0}, wireOp{"PUT", k, i + 1})
			}
			if _, err := c.Write(encodeWindow(binary, ops)); err != nil {
				t.Fatal(err)
			}
			got := readReplies(t, binary, r, len(ops))
			for k := 0; k < keys; k++ {
				want := fmt.Sprintf("VAL %d", i)
				if i == 0 {
					want = "NIL"
				}
				if get, put := got[1+2*k], got[2+2*k]; get != want || put != "OK" {
					t.Fatalf("window %d key %d: GET,PUT replied %q,%q, want %q,OK", i, k, get, put, want)
				}
			}
		}
	})
}

// TestWindowCrashMidWindow injects a power failure while a deep pipelined
// window of PUTs is in flight: every request still gets exactly one reply —
// OK for the acked prefix of each shard, ERR for the rest — the framing
// survives (the connection keeps answering), and after Recover every OK'd
// write is there.
func TestWindowCrashMidWindow(t *testing.T) {
	dialects(t, func(t *testing.T, binary bool) {
		kvOpts := kv.DefaultOptions()
		kvOpts.Shards = 2
		kvOpts.MaxBatch = 8
		var armed atomic.Bool
		kvOpts.CrashBeforeCommit = func(shard, batch, size int) bool { return armed.Load() && batch >= 5 }
		heap := pmem.New(2 * int(kv.RecommendedHeapBytes(kvOpts)))
		st, err := kv.Open(heap, kvOpts)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Start(st, "127.0.0.1:0", Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown()
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(20 * time.Second))
		r := bufio.NewReader(c)

		const n = 1000 // several windows deep: the ring fills and keeps cycling
		ops := make([]wireOp, n)
		for i := range ops {
			ops[i] = wireOp{"PUT", uint64(i), uint64(i) + 1}
		}
		armed.Store(true)
		if _, err := c.Write(encodeWindow(binary, ops)); err != nil {
			t.Fatal(err)
		}
		got := readReplies(t, binary, r, n)
		<-st.Crashed()
		acked, nacked := 0, 0
		for i, rep := range got {
			switch {
			case rep == "OK":
				acked++
			case strings.HasPrefix(rep, "ERR") && strings.Contains(rep, kv.ErrCrashed.Error()):
				nacked++
			default:
				t.Fatalf("request %d: reply %q is neither OK nor a crash ERR", i, rep)
			}
		}
		if acked == 0 || nacked == 0 {
			t.Fatalf("crash did not land mid-window: %d acked, %d nacked", acked, nacked)
		}
		// Framing intact: the connection still answers, one reply per request.
		if _, err := c.Write(encodeWindow(binary, []wireOp{{"GET", 1, 0}, {"PUT", 2, 3}})); err != nil {
			t.Fatal(err)
		}
		for i, rep := range readReplies(t, binary, r, 2) {
			if !strings.HasPrefix(rep, "ERR") {
				t.Fatalf("request %d after the crash: reply %q, want ERR", i, rep)
			}
		}
		// No acked write lost.
		kvOpts.CrashBeforeCommit = nil
		st2, _, err := kv.Recover(heap, kvOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		for i, rep := range got {
			if rep != "OK" {
				continue
			}
			if v, ok, err := st2.Get(uint64(i)); err != nil || !ok || v != uint64(i)+1 {
				t.Fatalf("acked PUT %d lost across the crash: Get = %d,%v,%v", i, v, ok, err)
			}
		}
	})
}

// TestWindowPutAckCoalescing: a window of pipelined PUTs delivered in one
// client write is committed together and acked in O(1) server writes.
func TestWindowPutAckCoalescing(t *testing.T) {
	const window = 64
	dialects(t, func(t *testing.T, binary bool) {
		var writes atomic.Int64
		srv, cl := testServer(t, Options{
			WrapConn: func(c net.Conn) net.Conn {
				return &countingConn{Conn: c, writes: &writes}
			},
		})
		defer srv.Shutdown()
		cl.Close()
		ops := make([]wireOp, window)
		for i := range ops {
			ops[i] = wireOp{"PUT", uint64(i), 1}
		}
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		before := kv.Totals(srv.Store().Stats())
		writes.Store(0)
		if _, err := c.Write(encodeWindow(binary, ops)); err != nil {
			t.Fatal(err)
		}
		c.(*net.TCPConn).CloseWrite()
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		body, err := io.ReadAll(c)
		if err != nil {
			t.Fatal(err)
		}
		for i, rep := range readReplies(t, binary, bufio.NewReader(bytes.NewReader(body)), window) {
			if rep != "OK" {
				t.Fatalf("PUT %d: reply %q", i, rep)
			}
		}
		if w := writes.Load(); w > 4 {
			t.Fatalf("%d server writes for a %d-PUT window, want O(1)", w, window)
		}
		after := kv.Totals(srv.Store().Stats())
		if ops, batches := after.BatchedOps-before.BatchedOps, after.Batches-before.Batches; ops != window || batches >= window/2 {
			t.Fatalf("%d ops in %d batches: the window did not share group commits", ops, batches)
		}
	})
}
