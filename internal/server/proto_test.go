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
	"nvmcache/internal/nvclient"
	"nvmcache/internal/proto"
)

// testServerBin boots a server and a binary-mode client on it.
func testServerBin(t *testing.T, opts Options) (*Server, *nvclient.Client) {
	t.Helper()
	srv, cl := testServer(t, opts)
	cl.Close()
	bcl, err := nvclient.DialBinary(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return srv, bcl
}

func TestBinaryProtocolEndToEnd(t *testing.T) {
	srv, cl := testServerBin(t, Options{})
	defer srv.Shutdown()

	if err := cl.Put(1, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get(1); err != nil || !ok || v != 100 {
		t.Fatalf("Get(1) = %d,%v,%v", v, ok, err)
	}
	if _, ok, err := cl.Get(2); err != nil || ok {
		t.Fatalf("Get(2) = %v,%v, want miss", ok, err)
	}
	if err := cl.Put(1<<64-1, 7); err != nil { // max uint64 key
		t.Fatal(err)
	}
	if v, ok, _ := cl.Get(1<<64 - 1); !ok || v != 7 {
		t.Fatalf("Get(max) = %d,%v", v, ok)
	}
	if v, err := cl.Incr(5, 10); err != nil || v != 10 {
		t.Fatalf("Incr = %d,%v", v, err)
	}
	if v, err := cl.Decr(5, 3); err != nil || v != 7 {
		t.Fatalf("Decr = %d,%v", v, err)
	}

	// DEL via the pipelined primitives (no blocking helper for it).
	if err := cl.SendDel(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if op, _, err := cl.RecvReply(); err != nil || op != proto.RepOK {
		t.Fatalf("DEL reply = %d,%v, want RepOK", op, err)
	}
	if err := cl.SendDel(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if op, _, err := cl.RecvReply(); err != nil || op != proto.RepNil {
		t.Fatalf("second DEL reply = %d,%v, want RepNil", op, err)
	}

	// Batched verbs.
	keys := []uint64{10, 11, 12, 13}
	vals := []uint64{100, 110, 120, 130}
	if err := cl.MPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	probe := []uint64{10, 999, 12}
	gv, gf, err := cl.MGet(probe, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !gf[0] || gv[0] != 100 || gf[1] || !gf[2] || gv[2] != 120 {
		t.Fatalf("MGet = %v %v", gv, gf)
	}

	// SCAN parity with the store.
	if err := cl.SendScan(10, 4); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	op, p, err := cl.RecvReply()
	if err != nil || op != proto.RepRange {
		t.Fatalf("SCAN reply = %d,%v", op, err)
	}
	sk, sv, err := proto.DecodeRange(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.Store().Scan(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sk) != len(want) {
		t.Fatalf("SCAN: %d pairs, want %d", len(sk), len(want))
	}
	for i := range want {
		if sk[i] != want[i].K || sv[i] != want[i].V {
			t.Fatalf("SCAN pair %d = %d/%d, want %d/%d", i, sk[i], sv[i], want[i].K, want[i].V)
		}
	}

	// STATS over the binary protocol parses into the same schema.
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total["puts"] != 6 { // 2 puts + 4 mput pairs
		t.Fatalf("stats puts = %v, want 6", stats.Total["puts"])
	}

	// QUIT closes the connection after the BYE frame.
	if err := cl.SendQuit(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if op, _, err := cl.RecvReply(); err != nil || op != proto.RepBye {
		t.Fatalf("QUIT reply = %d,%v", op, err)
	}
	if _, _, err := cl.RecvReply(); err == nil {
		t.Fatal("connection survived QUIT")
	}
}

// TestProtocolsShareThePort proves the version-sniffing negotiation: a
// text and a binary client work side by side against one listener and
// see each other's writes.
func TestProtocolsShareThePort(t *testing.T) {
	srv, txt := testServer(t, Options{})
	defer srv.Shutdown()
	bin, err := nvclient.DialBinary(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()
	if err := txt.Put(1, 11); err != nil {
		t.Fatal(err)
	}
	if err := bin.Put(2, 22); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := bin.Get(1); err != nil || !ok || v != 11 {
		t.Fatalf("binary Get(text's key) = %d,%v,%v", v, ok, err)
	}
	if v, ok, err := txt.Get(2); err != nil || !ok || v != 22 {
		t.Fatalf("text Get(binary's key) = %d,%v,%v", v, ok, err)
	}
}

// TestTextMGetMPutVerbs drives the new batched text verbs end to end.
func TestTextMGetMPutVerbs(t *testing.T) {
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
	step("MPUT 1 10 2 20 3 30", "OK")
	step("MGET 1 9 3", "VALS 3 10 NIL 30")
	// Typed client calls ride the same verbs on a text connection.
	if err := cl.MPut([]uint64{4}, []uint64{40}); err != nil {
		t.Fatal(err)
	}
	vals, found, err := cl.MGet([]uint64{4, 5}, nil, nil)
	if err != nil || !found[0] || vals[0] != 40 || found[1] {
		t.Fatalf("typed MGet = %v %v %v", vals, found, err)
	}
	if got, _ := cl.Do("MPUT 1 2 3"); !strings.HasPrefix(got, "ERR usage: MPUT") {
		t.Fatalf("odd operand count: %q", got)
	}
	if got, _ := cl.Do("MGET"); !strings.HasPrefix(got, "ERR usage: MGET") {
		t.Fatalf("no keys: %q", got)
	}
	if got, _ := cl.Do("MGET x"); !strings.HasPrefix(got, "ERR usage: MGET") {
		t.Fatalf("bad key: %q", got)
	}
}

// TestPartialLineNotExecuted is the regression for the truncated-request
// bug: a line that arrives without its newline (the connection died
// mid-request) must never execute. The old handler ran strings.Fields on
// the partial line before checking the read error, so `PUT 7 9` cut from
// a longer value would commit.
func TestPartialLineNotExecuted(t *testing.T) {
	srv, cl := testServer(t, Options{})
	defer srv.Shutdown()
	if err := cl.Put(8, 1); err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// One complete request, then a truncated one.
	if _, err := c.Write([]byte("PUT 6 5\nPUT 7 9")); err != nil {
		t.Fatal(err)
	}
	c.(*net.TCPConn).CloseWrite()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil {
		t.Fatalf("handler did not close the connection: %v", err)
	}
	c.Close()
	if v, ok, err := srv.Store().Get(6); err != nil || !ok || v != 5 {
		t.Fatalf("complete line not executed: Get(6) = %d,%v,%v", v, ok, err)
	}
	if _, ok, _ := srv.Store().Get(7); ok {
		t.Fatal("truncated PUT 7 9 was executed")
	}
}

// countingConn counts its Write calls; WrapConn interposes it so tests
// can observe the handler's syscall behavior.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestPipelinedAckCoalescing asserts the write-coalescing contract in
// both protocols: a window of N pipelined requests, delivered in one
// client write, is answered in O(1) server writes — not O(N).
func TestPipelinedAckCoalescing(t *testing.T) {
	const window = 64
	for _, mode := range []string{"text", "binary"} {
		t.Run(mode, func(t *testing.T) {
			var writes atomic.Int64
			srv, cl := testServer(t, Options{
				WrapConn: func(c net.Conn) net.Conn {
					return &countingConn{Conn: c, writes: &writes}
				},
			})
			defer srv.Shutdown()
			if err := cl.Put(1, 2); err != nil {
				t.Fatal(err)
			}
			cl.Close()

			var req bytes.Buffer
			if mode == "text" {
				for i := 0; i < window; i++ {
					fmt.Fprintln(&req, "GET 1")
				}
			} else {
				frames := make([]byte, 0, window*(proto.HeaderSize+8))
				for i := 0; i < window; i++ {
					frames = proto.AppendGet(frames, 1)
				}
				req.Write(frames)
			}
			c, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			writes.Store(0)
			if _, err := c.Write(req.Bytes()); err != nil {
				t.Fatal(err)
			}
			c.(*net.TCPConn).CloseWrite()
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			body, err := io.ReadAll(c)
			if err != nil {
				t.Fatal(err)
			}
			// All replies arrived...
			if mode == "text" {
				if got := strings.Count(string(body), "\n"); got != window {
					t.Fatalf("%d reply lines, want %d", got, window)
				}
			} else {
				r := bufio.NewReader(bytes.NewReader(body))
				var scratch []byte
				for i := 0; i < window; i++ {
					op, p, err := proto.ReadFrame(r, &scratch)
					if err != nil || op != proto.RepVal {
						t.Fatalf("reply %d = (%d,%v)", i, op, err)
					}
					if v, _ := proto.DecodeVal(p); v != 2 {
						t.Fatalf("reply %d = %d, want 2", i, v)
					}
				}
			}
			// ...in O(1) writes. The exact count depends on TCP segmentation
			// of the request (the window may straddle reads), but it must be
			// nowhere near one write per request.
			if w := writes.Load(); w > 4 {
				t.Fatalf("%d server writes for a %d-request window, want O(1)", w, window)
			}
		})
	}
}

// execFrames runs every frame in the stream through h.exec and waits out
// the window, exactly as serveWindow would for one readable burst.
func execFrames(h *binHandler, rd *bytes.Reader, r *bufio.Reader) {
	rd.Seek(0, io.SeekStart)
	r.Reset(rd)
	h.win.out = h.win.out[:0]
	for {
		op, p, err := proto.ReadFrame(r, &h.scratch)
		if err != nil {
			if err == io.EOF {
				h.win.barrier()
				return
			}
			panic(err)
		}
		if h.exec(op, p) {
			return
		}
	}
}

// TestBinaryWindowAllocsPut pins the whole durable-write path of a
// pipelined window at zero allocations through the live engine: 64 PUT
// frames decoded, queued on their shards, group-committed, completed
// and answered in order. It replaces the stub-backend protocol-layer gate:
// the engine no longer allocates per request, so nothing needs stubbing out.
func TestBinaryWindowAllocsPut(t *testing.T) {
	kvOpts := kv.DefaultOptions()
	kvOpts.Shards = 2
	// The online cache sizes itself once, after one sampled burst per shard
	// thread; a short burst puts that one-time MRC analysis inside the
	// warm-up.
	kvOpts.Config.BurstLength = 1 << 12
	srv, cl := testServerKV(t, kvOpts, Options{})
	defer srv.Shutdown()
	cl.Close()
	const window = 64
	var frames []byte
	for k := uint64(0); k < window; k++ {
		frames = proto.AppendPut(frames, k, k+1)
	}
	rd := bytes.NewReader(frames)
	r := bufio.NewReaderSize(rd, connBufSize)
	h := &binHandler{srv: srv, win: newWindow(srv.Store(), false, 0)}
	for i := 0; i < 64; i++ { // warm: tree depth, page pool, batch buffers, ticket channels
		execFrames(h, rd, r)
	}
	if n := testing.AllocsPerRun(100, func() { execFrames(h, rd, r) }); n != 0 {
		t.Fatalf("%d-PUT window decode→submit→commit→reply allocs = %v, want 0", window, n)
	}
	if got := bytes.Count(h.win.out, proto.AppendOK(nil)); got != window {
		t.Fatalf("window answered %d OK frames, want %d", got, window)
	}
}

// TestBinaryWindowAllocsPutGet is TestBinaryWindowAllocsPut for a 64-request
// window of PUT k, GET k pairs: each GET queues behind its own PUT, rides
// that PUT's group commit and is answered from its ticket, still without
// allocating.
func TestBinaryWindowAllocsPutGet(t *testing.T) {
	kvOpts := kv.DefaultOptions()
	kvOpts.Shards = 2
	srv, cl := testServerKV(t, kvOpts, Options{})
	defer srv.Shutdown()
	cl.Close()
	const pairs = 32
	var frames, want []byte
	for k := uint64(0); k < pairs; k++ {
		frames = proto.AppendGet(proto.AppendPut(frames, k, k+1), k)
		want = proto.AppendVal(proto.AppendOK(want), k+1)
	}
	rd := bytes.NewReader(frames)
	r := bufio.NewReaderSize(rd, connBufSize)
	h := &binHandler{srv: srv, win: newWindow(srv.Store(), false, 0)}
	for i := 0; i < 64; i++ { // warm: tree depth, page pool, batch buffers, ticket channels
		execFrames(h, rd, r)
	}
	if n := testing.AllocsPerRun(100, func() { execFrames(h, rd, r) }); n != 0 {
		t.Fatalf("%d-pair PUT,GET window allocs = %v, want 0", pairs, n)
	}
	if !bytes.Equal(h.win.out, want) {
		t.Fatalf("window answered %x, want OK,VAL k+1 for every pair", h.win.out)
	}
}

// TestBinaryDecodeReplyAllocsFullGet pins the GET path at zero
// allocations through the real engine: decode, snapshot read against the
// committed tree, and reply encode — the full server-side read hot path.
func TestBinaryDecodeReplyAllocsFullGet(t *testing.T) {
	srv, cl := testServer(t, Options{})
	defer srv.Shutdown()
	for k := uint64(0); k < 8; k++ {
		if err := cl.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	var frames []byte
	for k := uint64(0); k < 8; k++ {
		frames = proto.AppendGet(frames, k)
	}
	rd := bytes.NewReader(frames)
	r := bufio.NewReaderSize(rd, connBufSize)
	h := &binHandler{srv: srv, win: newWindow(srv.Store(), false, 0)}
	execFrames(h, rd, r) // warm
	if n := testing.AllocsPerRun(200, func() { execFrames(h, rd, r) }); n != 0 {
		t.Fatalf("full-path GET allocs = %v, want 0", n)
	}
}

// TestBinaryDecodeReplyAllocsFullMGet extends the full-path gate to the
// batched read verb: one MGET frame through kv.Store.GetBatch and back.
func TestBinaryDecodeReplyAllocsFullMGet(t *testing.T) {
	srv, cl := testServer(t, Options{})
	defer srv.Shutdown()
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i)
		if err := cl.Put(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	frames := proto.AppendMGet(nil, keys)
	rd := bytes.NewReader(frames)
	r := bufio.NewReaderSize(rd, connBufSize)
	h := &binHandler{srv: srv, win: newWindow(srv.Store(), false, 0)}
	execFrames(h, rd, r) // warm (grows h.keys/h.vals/h.found once)
	if n := testing.AllocsPerRun(200, func() { execFrames(h, rd, r) }); n != 0 {
		t.Fatalf("full-path MGET allocs = %v, want 0", n)
	}
}

// TestBinaryMalformedPayloadKeepsServing: a bad payload inside an intact
// frame gets an error frame and the connection keeps working; a framing
// violation (bad version byte) gets an error frame and a close.
func TestBinaryMalformedPayloadKeepsServing(t *testing.T) {
	srv, _ := testServer(t, Options{})
	defer srv.Shutdown()
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A PUT frame with a truncated (4-byte) payload, framing intact, then
	// a well-formed GET: the server must answer ERR then serve the GET.
	bad := []byte{proto.Version, proto.OpPut, 4, 0, 0, 0, 1, 2, 3, 4}
	req := append(bad, proto.AppendGet(nil, 42)...)
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(c)
	var scratch []byte
	op, _, err := proto.ReadFrame(r, &scratch)
	if err != nil || op != proto.RepErr {
		t.Fatalf("malformed payload reply = (%d,%v), want RepErr", op, err)
	}
	op, _, err = proto.ReadFrame(r, &scratch)
	if err != nil || op != proto.RepNil {
		t.Fatalf("follow-up GET reply = (%d,%v), want RepNil", op, err)
	}
	// Now break framing: a non-version byte mid-stream on a binary
	// connection. The server replies with an error frame and closes.
	if _, err := c.Write([]byte("GET 1\n")); err != nil {
		t.Fatal(err)
	}
	op, _, err = proto.ReadFrame(r, &scratch)
	if err != nil || op != proto.RepErr {
		t.Fatalf("framing violation reply = (%d,%v), want RepErr", op, err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatalf("connection not closed after framing violation: %v", err)
	}
}
