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
	// Stall, when non-nil, runs once before every request, malformed ones
	// included, with the request's verb as proto.VerbName names it in
	// both dialects ("?" for an unknown verb). Load tests inject
	// server-side latency through it (a sleeping hook) to prove the
	// client's coordinated-omission accounting: an open-loop driver must
	// see the stall inflate its tail percentiles.
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
	w := newWindow(s.st, true)
	serveWindow(c, r, w, func() (bool, error) {
		line, err := r.ReadString('\n')
		if err != nil {
			// No trailing delimiter: the line is a truncated request from a
			// dying connection and must never execute — a partial `PUT 1 2`
			// cut from `PUT 1 23` would commit the wrong value.
			return false, err
		}
		if fields := strings.Fields(line); len(fields) > 0 {
			return s.command(w, fields), nil
		}
		return false, nil
	})
}

// binHandler is one binary-protocol connection's state: its request window
// (whose reply buffer accumulates frames between coalesced writes) and
// scratch, which backs request payloads too large to alias the read buffer.
// With the window's reused operand buffers it keeps the
// decode→submit→reply path allocation-free.
type binHandler struct {
	srv     *Server
	win     *window
	scratch []byte
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

// stall runs the Stall hook, if any, for a request with opcode op.
func (s *Server) stall(op byte) {
	if s.opts.Stall != nil {
		s.opts.Stall(proto.VerbName(op))
	}
}

// exec decodes one binary request's operands into the window and executes
// it there; it reports whether the connection should close. A malformed
// payload inside an intact frame gets an error frame and the connection
// keeps serving — framing is still synchronized.
func (h *binHandler) exec(op byte, p []byte) (quit bool) {
	h.srv.stall(op)
	w := h.win
	var a, b uint64
	var err error
	switch op {
	case proto.OpPut, proto.OpIncr, proto.OpDecr:
		a, b, err = proto.DecodeKV(p)
	case proto.OpGet, proto.OpDel:
		a, err = proto.DecodeKey(p)
	case proto.OpScan:
		var n uint32
		a, n, err = proto.DecodeScan(p)
		b = uint64(n)
	case proto.OpMGet:
		w.keys, err = proto.DecodeMGet(p, w.keys)
	case proto.OpMPut:
		w.keys, w.vals, err = proto.DecodeMPut(p, w.keys, w.vals)
		w.pairs = w.pairs[:0]
		for i, k := range w.keys {
			w.pairs = append(w.pairs, kv.Pair{K: k, V: w.vals[i]})
		}
	case proto.OpStats, proto.OpQuit:
	default:
		w.fail("unknown opcode")
		return false
	}
	if err != nil {
		switch op {
		case proto.OpMGet, proto.OpMPut:
			w.fail(err.Error())
		case proto.OpIncr, proto.OpDecr:
			w.fail("bad counter payload")
		default:
			w.fail("bad " + proto.VerbName(op) + " payload")
		}
		return false
	}
	return w.exec(op, a, b)
}

// textOp returns the opcode of a text verb, in any case, or 0 for none.
func textOp(verb string) byte {
	for op := proto.OpPut; op <= proto.OpQuit; op++ {
		if strings.EqualFold(verb, proto.VerbName(op)) {
			return op
		}
	}
	return 0
}

// syntax is a text verb's operand syntax, for its usage error.
var syntax = [...]string{
	proto.OpPut: "<key> <value>", proto.OpGet: "<key>", proto.OpDel: "<key>",
	proto.OpIncr: "<key> <delta>", proto.OpDecr: "<key> <delta>", proto.OpScan: "<start> <count>",
	proto.OpMGet: "<key> ...", proto.OpMPut: "<key> <value> ...",
}

// command parses one text request line, f its fields, into the window's
// operands and executes it there; it reports whether the connection
// should close. MGET and MPUT are bounded at proto.MaxOps before an
// operand is read, as the binary decoder bounds its count prefix.
func (s *Server) command(w *window, f []string) (quit bool) {
	op := textOp(f[0])
	s.stall(op)
	var a, b uint64
	var err error
	switch n := len(f) - 1; op {
	case proto.OpPut, proto.OpIncr, proto.OpDecr, proto.OpScan:
		a, b, err = parse2(f)
	case proto.OpGet, proto.OpDel:
		a, err = parse1(f)
	case proto.OpMGet, proto.OpMPut:
		if n == 0 || op == proto.OpMPut && n%2 != 0 {
			w.fail("usage: " + proto.VerbName(op) + " " + syntax[op])
			return false
		}
		if op == proto.OpMGet && n > proto.MaxOps {
			w.fail(fmt.Sprintf("MGET accepts at most %d keys", proto.MaxOps))
			return false
		}
		if op == proto.OpMPut && n/2 > proto.MaxOps {
			w.fail(fmt.Sprintf("MPUT accepts at most %d pairs", proto.MaxOps))
			return false
		}
		w.keys = w.keys[:0]
		for _, tok := range f[1:] {
			var k uint64
			if k, err = strconv.ParseUint(tok, 10, 64); err != nil {
				break
			}
			w.keys = append(w.keys, k)
		}
		w.pairs = w.pairs[:0]
		for i := 1; op == proto.OpMPut && i < len(w.keys); i += 2 {
			w.pairs = append(w.pairs, kv.Pair{K: w.keys[i-1], V: w.keys[i]})
		}
	case proto.OpStats, proto.OpQuit:
	default:
		w.fail(fmt.Sprintf("unknown command %q", f[0]))
		return false
	}
	if err != nil {
		w.fail(fmt.Sprintf("usage: %s %s (%v)", proto.VerbName(op), syntax[op], err))
		return false
	}
	return w.exec(op, a, b)
}

// parse1 parses the one operand of f, a request line's fields.
func parse1(f []string) (uint64, error) {
	if len(f) != 2 {
		return 0, fmt.Errorf("want 1 operand, got %d", len(f)-1)
	}
	return strconv.ParseUint(f[1], 10, 64)
}

// parse2 parses the two operands of f, a request line's fields.
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
