// Package server implements the nvserver wire protocols on top of a
// kv.Store. It used to live inside cmd/nvserver; it is a package of its
// own so that internal/loadgen can boot an in-process ("self-hosted")
// server for tests, CI smoke runs and nvbench experiments without an
// external process, and so each protocol has exactly one implementation.
//
// One goroutine accepts; every connection gets its own handler goroutine,
// so a slow client never stalls the others — concurrency converges in the
// store's shard queues, where group commit batches it.
//
// Two protocols share the port, chosen per connection by its first byte:
// proto.Version (0xB1, never a text verb's first byte) selects the binary
// framed protocol (see internal/proto — length-prefixed frames, reused
// per-connection buffers, an allocation-free decode→submit→reply hot
// path), anything else the text line protocol below. Both run on one
// per-connection request window (window.go): every request already
// readable is decoded and its mutation submitted to the store without
// waiting, so a pipelined window of writes shares group commits; replies
// are emitted in request order and written only once no further request is
// buffered, so the whole window is acked in one syscall. The window's
// ordering contract — a read observes every earlier write of its own
// connection and none of its later ones — is stated on the window type.
//
// Text protocol (one request line, one reply line, decimal uint64
// operands):
//
//	PUT <k> <v>        ->  OK
//	GET <k>            ->  VAL <v> | NIL
//	DEL <k>            ->  OK | NIL
//	INCR <k> <d>       ->  VAL <v> (the post-increment value)
//	DECR <k> <d>       ->  VAL <v> (wrapping uint64; missing keys count from 0)
//	SCAN <start> <n>   ->  RANGE <count> k1 v1 k2 v2 ... (ascending, one line)
//	MGET <k> ...       ->  VALS <count> <v|NIL> ... (input order)
//	MPUT <k> <v> ...   ->  OK (all pairs durable; one group-commit enqueue per shard)
//	STATS              ->  one line per shard, a total line, a stripes line, then END
//	QUIT               ->  BYE (server closes the connection)
//	anything else      ->  ERR <message>
//
// MGET/MPUT accept at most proto.MaxOps keys/pairs per request in either
// protocol. An OK reply to PUT/DEL/MPUT is an ack-after-flush: the
// mutation's FASE has committed and drained, so it survives any later
// power failure. The same holds for a VAL reply to INCR/DECR. STATS lines are sorted, stable
// `key=value` tokens (see kv.ShardStats.Pairs); internal/nvclient parses
// them.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"nvmcache/internal/kv"
	"nvmcache/internal/pmem"
	"nvmcache/internal/proto"
)

// MaxScan caps the pair count one SCAN may return (the reply is a single
// line; an unbounded scan would turn it into an arbitrarily large write).
const MaxScan = 512

// connBufSize sizes each connection's read buffer and reply buffer: large
// enough that a deep pipeline window of requests decodes zero-copy and
// its replies coalesce into one write.
const connBufSize = 64 << 10

// Options tune one Server beyond its store and listener.
type Options struct {
	// Stall, when non-nil, runs before every parsed request with the
	// request's verb. Load tests inject server-side latency through it (a
	// sleeping hook) to prove the client's coordinated-omission accounting:
	// an open-loop driver must see the stall inflate its tail percentiles.
	// Binary-protocol requests report the equivalent text verb.
	Stall func(verb string)
	// WrapConn, when non-nil, wraps every accepted connection before the
	// handler touches it. Tests interpose counting wrappers through it to
	// assert write-coalescing behavior.
	WrapConn func(net.Conn) net.Conn
}

// Server serves the line protocol until Shutdown.
type Server struct {
	st     *kv.Store
	ln     net.Listener
	opts   Options
	closed atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// New wraps an accepted listener and a running store. Call Serve to accept.
func New(st *kv.Store, ln net.Listener, opts Options) *Server {
	return &Server{st: st, ln: ln, opts: opts, conns: make(map[net.Conn]struct{})}
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves st in a background goroutine.
func Start(st *kv.Store, addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := New(st, ln, opts)
	go srv.Serve()
	return srv, nil
}

// SelfHost boots a complete in-process server: a fresh emulated NVRAM heap
// sized for kvOpts, a store opened on it, and a listener on an ephemeral
// loopback port, serving in the background. It is how loadgen tests, CI
// smoke runs and `nvload -selfhost` get a live nvserver with no external
// process. Shutdown closes the store too.
func SelfHost(kvOpts kv.Options, opts Options) (*Server, error) {
	h := pmem.New(int(kv.RecommendedHeapBytes(kvOpts)))
	st, err := kv.Open(h, kvOpts)
	if err != nil {
		return nil, err
	}
	srv, err := Start(st, "127.0.0.1:0", opts)
	if err != nil {
		st.Close()
		return nil, err
	}
	return srv, nil
}

// Addr returns the listener's address (dial this).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Store exposes the served store (self-tests assert against it directly).
func (s *Server) Store() *kv.Store { return s.st }

// Serve accepts until the listener closes.
func (s *Server) Serve() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Shutdown stops accepting, unblocks every connection reader, waits for
// the handlers to finish, then closes the store gracefully: requests
// already in the shard queues are still batched, committed, flushed and
// acked before Close returns, so a load run ends with a clean durable
// state. On a crashed store the drain is impossible and Close reports
// ErrCrashed; Shutdown passes that through.
func (s *Server) Shutdown() error {
	s.closed.Store(true)
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return s.st.Close()
}

// handle serves one connection: the first byte picks the protocol (see
// the package comment), then the matching loop runs until the client
// quits or the connection dies.
func (s *Server) handle(c net.Conn) {
	if s.opts.WrapConn != nil {
		c = s.opts.WrapConn(c)
	}
	defer c.Close()
	r := bufio.NewReaderSize(c, connBufSize)
	first, err := r.Peek(1)
	if err != nil {
		return
	}
	if proto.Sniff(first[0]) {
		s.handleBinary(c, r)
		return
	}
	s.handleText(c, r)
}

// flush writes the window's emitted replies, if any, in one call.
func flush(c net.Conn, w *window) error {
	if len(w.out) == 0 {
		return nil
	}
	_, err := c.Write(w.out)
	w.out = w.out[:0]
	return err
}

// serveWindow is the read loop both dialects share. next decodes one
// request and hands it to the window (quit ends the connection after its
// reply, err after a last flush). Replies go out only once no further
// request is already buffered — everything in the window is waited for and
// a pipelining client gets its whole window's replies in one syscall — or
// when the reply buffer has outgrown its window.
func serveWindow(c net.Conn, r *bufio.Reader, w *window, next func() (quit bool, err error)) {
	for {
		quit, err := next()
		done := quit || err != nil
		if done || r.Buffered() == 0 {
			w.barrier()
		}
		if done || r.Buffered() == 0 || len(w.out) >= connBufSize {
			if flush(c, w) != nil || done {
				return
			}
		}
	}
}

func (s *Server) handleText(c net.Conn, r *bufio.Reader) {
	h := &textHandler{srv: s, win: newWindow(s.st, true)}
	serveWindow(c, r, h.win, func() (bool, error) {
		line, err := r.ReadString('\n')
		if err != nil {
			// No trailing delimiter: the line is a truncated request from a
			// dying connection and must never execute — a partial `PUT 1 2`
			// cut from `PUT 1 23` would commit the wrong value.
			return false, err
		}
		if fields := strings.Fields(line); len(fields) > 0 {
			return h.command(fields), nil
		}
		return false, nil
	})
}

// binHandler is one binary-protocol connection's state: its request window
// (whose reply buffer accumulates frames between coalesced writes) and the
// reused buffers that keep the decode→submit→reply path allocation-free
// (scratch backs oversized request payloads; keys/vals/found/pairs back the
// batched verbs).
type binHandler struct {
	srv     *Server
	win     *window
	scratch []byte
	keys    []uint64
	vals    []uint64
	found   []bool
	pairs   []kv.Pair
}

func (s *Server) handleBinary(c net.Conn, r *bufio.Reader) {
	h := &binHandler{srv: s, win: newWindow(s.st, false)}
	serveWindow(c, r, h.win, func() (bool, error) {
		op, payload, err := proto.ReadFrame(r, &h.scratch)
		if err != nil {
			// A protocol violation gets a final error frame before the
			// close (framing past it cannot be trusted, so the connection
			// cannot be resynchronized); a plain read error — EOF, reset —
			// just ends the handler.
			var pe *proto.Error
			if errors.As(err, &pe) {
				h.win.fail(pe.Msg)
			}
			return false, err
		}
		return h.exec(op, payload), nil
	})
}

// exec decodes one binary request and hands it to the window; it reports
// whether the connection should close. A malformed payload inside an intact
// frame gets an error frame and the connection keeps serving — framing is
// still synchronized.
func (h *binHandler) exec(op byte, p []byte) (quit bool) {
	if stall := h.srv.opts.Stall; stall != nil {
		stall(proto.VerbName(op))
	}
	w := h.win
	switch op {
	case proto.OpPut:
		k, v, err := proto.DecodeKV(p)
		if err != nil {
			w.fail("bad PUT payload")
			return false
		}
		w.submit(slotAck, kv.OpPut, k, v)
	case proto.OpGet:
		k, err := proto.DecodeKey(p)
		if err != nil {
			w.fail("bad GET payload")
			return false
		}
		w.get(k)
	case proto.OpDel:
		k, err := proto.DecodeKey(p)
		if err != nil {
			w.fail("bad DEL payload")
			return false
		}
		w.submit(slotDel, kv.OpDel, k, 0)
	case proto.OpIncr, proto.OpDecr:
		k, d, err := proto.DecodeKV(p)
		if err != nil {
			w.fail("bad counter payload")
			return false
		}
		cop := kv.OpIncr
		if op == proto.OpDecr {
			cop = kv.OpDecr
		}
		w.submit(slotCounter, cop, k, d)
	case proto.OpScan:
		start, n, err := proto.DecodeScan(p)
		if err != nil {
			w.fail("bad SCAN payload")
			return false
		}
		if n > MaxScan {
			n = MaxScan
		}
		w.barrier()
		pairs, err := w.st.Scan(start, int(n))
		if err != nil {
			w.fail(err.Error())
			return false
		}
		w.out = proto.AppendRangeHeader(w.out, len(pairs))
		for _, pr := range pairs {
			w.out = proto.AppendU64(w.out, pr.K)
			w.out = proto.AppendU64(w.out, pr.V)
		}
	case proto.OpMGet:
		var err error
		h.keys, err = proto.DecodeMGet(p, h.keys)
		if err != nil {
			w.fail(err.Error())
			return false
		}
		n := len(h.keys)
		if cap(h.vals) < n {
			h.vals = make([]uint64, 0, proto.MaxOps)
		}
		if cap(h.found) < n {
			h.found = make([]bool, 0, proto.MaxOps)
		}
		h.vals, h.found = h.vals[:n], h.found[:n]
		w.barrier()
		if err := w.st.GetBatch(h.keys, h.vals, h.found); err != nil {
			w.fail(err.Error())
			return false
		}
		w.out = proto.AppendValsHeader(w.out, n)
		for i := 0; i < n; i++ {
			w.out = proto.AppendValsEntry(w.out, h.vals[i], h.found[i])
		}
	case proto.OpMPut:
		var err error
		h.keys, h.vals, err = proto.DecodeMPut(p, h.keys, h.vals)
		if err != nil {
			w.fail(err.Error())
			return false
		}
		if cap(h.pairs) < len(h.keys) {
			h.pairs = make([]kv.Pair, 0, proto.MaxOps)
		}
		h.pairs = h.pairs[:0]
		for i := range h.keys {
			h.pairs = append(h.pairs, kv.Pair{K: h.keys[i], V: h.vals[i]})
		}
		w.submitBatch(h.pairs)
	case proto.OpStats:
		w.barrier()
		w.out = proto.AppendStatsReply(w.out, h.srv.statsText())
	case proto.OpQuit:
		w.barrier()
		w.out = proto.AppendBye(w.out)
		return true
	default:
		w.fail("unknown opcode")
	}
	return false
}

// statsText renders the STATS body shared by both protocols: one line per
// shard, the total line, the stripes line (END is the text protocol's
// framing and stays out).
func (s *Server) statsText() []byte {
	var b strings.Builder
	stats := s.st.Stats()
	for _, st := range stats {
		fmt.Fprintln(&b, st)
	}
	fmt.Fprintln(&b, kv.Totals(stats))
	fmt.Fprintln(&b, s.st.StripeSummary())
	return []byte(b.String())
}

// textHandler is one text-protocol connection's state.
type textHandler struct {
	srv *Server
	win *window
}

// command decodes one request line and hands it to the window; it reports
// whether the connection should close.
func (h *textHandler) command(f []string) (quit bool) {
	verb := strings.ToUpper(f[0])
	if stall := h.srv.opts.Stall; stall != nil {
		stall(verb)
	}
	w := h.win
	switch verb {
	case "PUT":
		k, v, err := parse2(f)
		if err != nil {
			w.fail(fmt.Sprintf("usage: PUT <key> <value> (%v)", err))
			return false
		}
		w.submit(slotAck, kv.OpPut, k, v)
	case "GET":
		k, err := parse1(f)
		if err != nil {
			w.fail(fmt.Sprintf("usage: GET <key> (%v)", err))
			return false
		}
		w.get(k)
	case "DEL":
		k, err := parse1(f)
		if err != nil {
			w.fail(fmt.Sprintf("usage: DEL <key> (%v)", err))
			return false
		}
		w.submit(slotDel, kv.OpDel, k, 0)
	case "INCR", "DECR":
		k, d, err := parse2(f)
		if err != nil {
			w.fail(fmt.Sprintf("usage: %s <key> <delta> (%v)", verb, err))
			return false
		}
		op := kv.OpIncr
		if verb == "DECR" {
			op = kv.OpDecr
		}
		w.submit(slotCounter, op, k, d)
	case "SCAN":
		start, n, err := parse2(f)
		if err != nil {
			w.fail(fmt.Sprintf("usage: SCAN <start> <count> (%v)", err))
			return false
		}
		if n > MaxScan {
			n = MaxScan
		}
		w.barrier()
		pairs, err := w.st.Scan(start, int(n))
		if err != nil {
			w.fail(err.Error())
			return false
		}
		w.out = append(w.out, "RANGE "...)
		w.out = strconv.AppendInt(w.out, int64(len(pairs)), 10)
		for _, p := range pairs {
			w.out = append(w.out, ' ')
			w.out = strconv.AppendUint(w.out, p.K, 10)
			w.out = append(w.out, ' ')
			w.out = strconv.AppendUint(w.out, p.V, 10)
		}
		w.out = append(w.out, '\n')
	case "MGET":
		if len(f) < 2 {
			w.fail("usage: MGET <key> ...")
			return false
		}
		if len(f)-1 > proto.MaxOps {
			w.fail(fmt.Sprintf("MGET accepts at most %d keys", proto.MaxOps))
			return false
		}
		keys := make([]uint64, len(f)-1)
		for i, tok := range f[1:] {
			k, err := strconv.ParseUint(tok, 10, 64)
			if err != nil {
				w.fail(fmt.Sprintf("usage: MGET <key> ... (%v)", err))
				return false
			}
			keys[i] = k
		}
		vals := make([]uint64, len(keys))
		found := make([]bool, len(keys))
		w.barrier()
		if err := w.st.GetBatch(keys, vals, found); err != nil {
			w.fail(err.Error())
			return false
		}
		w.out = append(w.out, "VALS "...)
		w.out = strconv.AppendInt(w.out, int64(len(keys)), 10)
		for i := range keys {
			if found[i] {
				w.out = append(w.out, ' ')
				w.out = strconv.AppendUint(w.out, vals[i], 10)
			} else {
				w.out = append(w.out, " NIL"...)
			}
		}
		w.out = append(w.out, '\n')
	case "MPUT":
		if len(f) < 3 || (len(f)-1)%2 != 0 {
			w.fail("usage: MPUT <key> <value> ...")
			return false
		}
		if (len(f)-1)/2 > proto.MaxOps {
			w.fail(fmt.Sprintf("MPUT accepts at most %d pairs", proto.MaxOps))
			return false
		}
		pairs := make([]kv.Pair, 0, (len(f)-1)/2)
		for i := 1; i < len(f); i += 2 {
			k, err := strconv.ParseUint(f[i], 10, 64)
			if err == nil {
				var v uint64
				v, err = strconv.ParseUint(f[i+1], 10, 64)
				if err == nil {
					pairs = append(pairs, kv.Pair{K: k, V: v})
					continue
				}
			}
			w.fail(fmt.Sprintf("usage: MPUT <key> <value> ... (%v)", err))
			return false
		}
		w.submitBatch(pairs)
	case "STATS":
		w.barrier()
		w.out = append(w.out, h.srv.statsText()...)
		w.out = append(w.out, "END\n"...)
	case "QUIT":
		w.barrier()
		w.out = append(w.out, "BYE\n"...)
		return true
	default:
		w.fail(fmt.Sprintf("unknown command %q", f[0]))
	}
	return false
}

func parse1(f []string) (uint64, error) {
	if len(f) != 2 {
		return 0, fmt.Errorf("want 1 operand, got %d", len(f)-1)
	}
	return strconv.ParseUint(f[1], 10, 64)
}

func parse2(f []string) (uint64, uint64, error) {
	if len(f) != 3 {
		return 0, 0, fmt.Errorf("want 2 operands, got %d", len(f)-1)
	}
	k, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	v, err := strconv.ParseUint(f[2], 10, 64)
	return k, v, err
}
