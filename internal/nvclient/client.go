// Package nvclient is the reusable Go client for the nvserver wire
// protocols, extracted from the ad-hoc connection handling that used to
// live in cmd/nvserver's self-test. A client speaks one of the server's
// two dialects, fixed at dial time:
//
//   - Text (Dial): the line protocol. Do sends one request and waits for
//     its one-line reply (DoMulti for STATS-style multi-line replies);
//     Send/Flush/Recv pipeline request lines.
//   - Binary (DialBinary): the length-prefixed framed protocol of
//     internal/proto. Requests encode into a reused buffer with zero
//     allocations per op, replies decode zero-copy from the connection's
//     read buffer — the hot path for loadgen and latency-sensitive
//     callers. The server sniffs the dialect from the first byte, so both
//     kinds of client share a port.
//
// The typed calls (Put, Get, Incr, Decr, MGet, MPut, Stats) work in both
// modes. Both dialects pipeline the same way: the typed Send* calls
// buffer requests without waiting, Flush pushes the window in one write,
// and RecvResult (or the mode-specific Recv/RecvReply) reads replies in
// strict FIFO order, so no request ids are needed. The open-loop load
// driver (internal/loadgen) is built on that style: its sender goroutine
// Sends on schedule while a reader goroutine Recvs, so a slow reply never
// delays the next scheduled request.
package nvclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"nvmcache/internal/proto"
)

// ErrTextOnly reports a raw line-protocol call (Do, DoMulti, Send, Recv)
// on a binary-mode client; use the typed calls instead.
var ErrTextOnly = errors.New("nvclient: line-protocol call on a binary-mode client")

// Client is one protocol connection. The blocking calls (Do, DoMulti,
// Put, Get, ..., Stats) must not be interleaved with pipelined calls on
// other goroutines; in pipelined style, one goroutine may Send/Flush
// while another Recvs.
type Client struct {
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	bin bool

	// Reused binary-mode buffers: ebuf backs one request's encoding,
	// scratch backs oversized reply payloads (proto.ReadFrame), rvals and
	// rfound back MGet replies in text mode.
	ebuf    []byte
	scratch []byte
	rvals   []uint64
	rfound  []bool
}

// Dial connects to an nvserver at addr, speaking the text line protocol.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout is Dial with a bound on connection establishment.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	return dial(addr, d, false)
}

// DialBinary connects to an nvserver at addr, speaking the binary framed
// protocol (internal/proto).
func DialBinary(addr string) (*Client, error) {
	return DialBinaryTimeout(addr, 10*time.Second)
}

// DialBinaryTimeout is DialBinary with a bound on connection
// establishment.
func DialBinaryTimeout(addr string, d time.Duration) (*Client, error) {
	return dial(addr, d, true)
}

func dial(addr string, d time.Duration, bin bool) (*Client, error) {
	c, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	cl := &Client{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriter(c), bin: bin}
	if bin {
		cl.ebuf = make([]byte, 0, 4096)
	}
	return cl, nil
}

// Binary reports the client's dialect.
func (cl *Client) Binary() bool { return cl.bin }

// Close tears the connection down. In-flight pipelined requests are lost.
func (cl *Client) Close() error { return cl.c.Close() }

// Do sends one request line and waits for its one-line reply, trimmed.
// Text mode only.
func (cl *Client) Do(cmd string) (string, error) {
	if cl.bin {
		return "", ErrTextOnly
	}
	if err := cl.Send(cmd); err != nil {
		return "", err
	}
	if err := cl.Flush(); err != nil {
		return "", err
	}
	return cl.Recv()
}

// DoMulti sends one request and reads reply lines until the terminator
// (exclusive). Text mode only.
func (cl *Client) DoMulti(cmd, end string) ([]string, error) {
	if cl.bin {
		return nil, ErrTextOnly
	}
	if err := cl.Send(cmd); err != nil {
		return nil, err
	}
	if err := cl.Flush(); err != nil {
		return nil, err
	}
	var out []string
	for {
		line, err := cl.Recv()
		if err != nil {
			return nil, err
		}
		if line == end {
			return out, nil
		}
		out = append(out, line)
	}
}

// Send buffers one request line without flushing; pair with Flush and
// Recv. A request buffered but never flushed is never seen by the server.
// Text mode only.
func (cl *Client) Send(cmd string) error {
	if cl.bin {
		return ErrTextOnly
	}
	_, err := fmt.Fprintln(cl.w, cmd)
	return err
}

// Flush pushes every buffered request to the server in one write.
func (cl *Client) Flush() error { return cl.w.Flush() }

// Recv reads the next reply line (FIFO order), trimmed of whitespace.
// Text mode only.
func (cl *Client) Recv() (string, error) {
	if cl.bin {
		return "", ErrTextOnly
	}
	line, err := cl.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(line), nil
}

// RecvReply reads the next binary reply frame (FIFO order). The payload
// aliases the client's internal buffers and is valid only until the next
// read. Binary mode only.
func (cl *Client) RecvReply() (op byte, payload []byte, err error) {
	if !cl.bin {
		return 0, nil, errors.New("nvclient: RecvReply on a text-mode client")
	}
	return proto.ReadFrame(cl.r, &cl.scratch)
}

// RecvResult reads and discards the next reply in either mode, reporting
// only whether the server answered with an application error (ERR line /
// error frame). It is the load driver's reader primitive: op generators
// know what they sent, so FIFO order pins each result to its request.
func (cl *Client) RecvResult() (appErr bool, err error) {
	if cl.bin {
		op, _, err := cl.RecvReply()
		if err != nil {
			return false, err
		}
		return op == proto.RepErr, nil
	}
	reply, err := cl.Recv()
	if err != nil {
		return false, err
	}
	return strings.HasPrefix(reply, "ERR"), nil
}

// SetReadDeadline bounds every subsequent receive; the zero time clears
// it. A deadline error poisons the connection's buffered reader state, so
// treat a timed-out client as dead.
func (cl *Client) SetReadDeadline(t time.Time) error { return cl.c.SetReadDeadline(t) }

// --- Pipelined typed sends -------------------------------------------
//
// Each buffers one request in the client's dialect without flushing. In
// binary mode they are allocation-free (the frame encodes into a reused
// buffer and copies into the write buffer).

// send stages cl.ebuf (one encoded frame) into the write buffer.
func (cl *Client) send() error {
	_, err := cl.w.Write(cl.ebuf)
	return err
}

// SendPut buffers a PUT.
func (cl *Client) SendPut(k, v uint64) error {
	if cl.bin {
		cl.ebuf = proto.AppendPut(cl.ebuf[:0], k, v)
		return cl.send()
	}
	return cl.Send(formatKV("PUT", k, v))
}

// SendGet buffers a GET.
func (cl *Client) SendGet(k uint64) error {
	if cl.bin {
		cl.ebuf = proto.AppendGet(cl.ebuf[:0], k)
		return cl.send()
	}
	return cl.Send(formatK("GET", k))
}

// SendDel buffers a DEL.
func (cl *Client) SendDel(k uint64) error {
	if cl.bin {
		cl.ebuf = proto.AppendDel(cl.ebuf[:0], k)
		return cl.send()
	}
	return cl.Send(formatK("DEL", k))
}

// SendIncr buffers an INCR.
func (cl *Client) SendIncr(k, d uint64) error {
	if cl.bin {
		cl.ebuf = proto.AppendIncr(cl.ebuf[:0], k, d)
		return cl.send()
	}
	return cl.Send(formatKV("INCR", k, d))
}

// SendDecr buffers a DECR.
func (cl *Client) SendDecr(k, d uint64) error {
	if cl.bin {
		cl.ebuf = proto.AppendDecr(cl.ebuf[:0], k, d)
		return cl.send()
	}
	return cl.Send(formatKV("DECR", k, d))
}

// SendScan buffers a SCAN.
func (cl *Client) SendScan(start uint64, n uint32) error {
	if cl.bin {
		cl.ebuf = proto.AppendScan(cl.ebuf[:0], start, n)
		return cl.send()
	}
	return cl.Send(formatKV("SCAN", start, uint64(n)))
}

// SendMGet buffers an MGET for keys (at most proto.MaxOps).
func (cl *Client) SendMGet(keys []uint64) error {
	if cl.bin {
		cl.ebuf = proto.AppendMGet(cl.ebuf[:0], keys)
		return cl.send()
	}
	return cl.Send(formatMulti("MGET", keys, nil))
}

// SendMPut buffers an MPUT for the parallel keys/vals slices (len(vals)
// must equal len(keys); at most proto.MaxOps pairs).
func (cl *Client) SendMPut(keys, vals []uint64) error {
	if cl.bin {
		cl.ebuf = proto.AppendMPut(cl.ebuf[:0], keys, vals)
		return cl.send()
	}
	return cl.Send(formatMulti("MPUT", keys, vals))
}

// SendStats buffers a STATS request.
func (cl *Client) SendStats() error {
	if cl.bin {
		cl.ebuf = proto.AppendStats(cl.ebuf[:0])
		return cl.send()
	}
	return cl.Send("STATS")
}

// SendQuit buffers a QUIT request.
func (cl *Client) SendQuit() error {
	if cl.bin {
		cl.ebuf = proto.AppendQuit(cl.ebuf[:0])
		return cl.send()
	}
	return cl.Send("QUIT")
}

func formatK(verb string, k uint64) string {
	return verb + " " + strconv.FormatUint(k, 10)
}

func formatKV(verb string, k, v uint64) string {
	return verb + " " + strconv.FormatUint(k, 10) + " " + strconv.FormatUint(v, 10)
}

func formatMulti(verb string, keys, vals []uint64) string {
	var b strings.Builder
	b.WriteString(verb)
	for i, k := range keys {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(k, 10))
		if vals != nil {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(vals[i], 10))
		}
	}
	return b.String()
}

// --- Blocking typed calls ---------------------------------------------

// errFrame converts an error-frame payload into an error (copying the
// message out of the transient read buffer).
func errFrame(verb string, payload []byte) error {
	return fmt.Errorf("nvclient: %s: ERR %s", verb, payload)
}

// Put stores k→v, returning an error for anything but an OK ack.
func (cl *Client) Put(k, v uint64) error {
	if cl.bin {
		if err := cl.SendPut(k, v); err != nil {
			return err
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		op, p, err := cl.RecvReply()
		switch {
		case err != nil:
			return err
		case op == proto.RepOK:
			return nil
		case op == proto.RepErr:
			return errFrame("PUT", p)
		}
		return fmt.Errorf("nvclient: PUT %d: unexpected reply op %d", k, op)
	}
	reply, err := cl.Do(formatKV("PUT", k, v))
	if err != nil {
		return err
	}
	if reply != "OK" {
		return fmt.Errorf("nvclient: PUT %d: %s", k, reply)
	}
	return nil
}

// Get reads k, reporting presence.
func (cl *Client) Get(k uint64) (uint64, bool, error) {
	if cl.bin {
		if err := cl.SendGet(k); err != nil {
			return 0, false, err
		}
		if err := cl.Flush(); err != nil {
			return 0, false, err
		}
		op, p, err := cl.RecvReply()
		switch {
		case err != nil:
			return 0, false, err
		case op == proto.RepVal:
			v, err := proto.DecodeVal(p)
			return v, err == nil, err
		case op == proto.RepNil:
			return 0, false, nil
		case op == proto.RepErr:
			return 0, false, errFrame("GET", p)
		}
		return 0, false, fmt.Errorf("nvclient: GET %d: unexpected reply op %d", k, op)
	}
	reply, err := cl.Do(formatK("GET", k))
	if err != nil {
		return 0, false, err
	}
	if reply == "NIL" {
		return 0, false, nil
	}
	v, err := parseVal(reply)
	if err != nil {
		return 0, false, fmt.Errorf("nvclient: GET %d: bad reply %q", k, reply)
	}
	return v, true, nil
}

// Incr adds d to k (wrapping uint64; a missing key counts from zero) and
// returns the post-increment value. The reply is an ack-after-flush: a
// returned Incr is durable.
func (cl *Client) Incr(k, d uint64) (uint64, error) { return cl.counter("INCR", k, d) }

// Decr subtracts d from k with Incr's semantics.
func (cl *Client) Decr(k, d uint64) (uint64, error) { return cl.counter("DECR", k, d) }

func (cl *Client) counter(verb string, k, d uint64) (uint64, error) {
	if cl.bin {
		var err error
		if verb == "INCR" {
			err = cl.SendIncr(k, d)
		} else {
			err = cl.SendDecr(k, d)
		}
		if err != nil {
			return 0, err
		}
		if err := cl.Flush(); err != nil {
			return 0, err
		}
		op, p, err := cl.RecvReply()
		switch {
		case err != nil:
			return 0, err
		case op == proto.RepVal:
			return proto.DecodeVal(p)
		case op == proto.RepErr:
			return 0, errFrame(verb, p)
		}
		return 0, fmt.Errorf("nvclient: %s %d: unexpected reply op %d", verb, k, op)
	}
	reply, err := cl.Do(formatKV(verb, k, d))
	if err != nil {
		return 0, err
	}
	v, err := parseVal(reply)
	if err != nil {
		return 0, fmt.Errorf("nvclient: %s %d: %s", verb, k, reply)
	}
	return v, nil
}

// parseVal parses a strict `VAL <decimal>` reply: trailing garbage after
// the number (`VAL 12garbage`) is rejected, unlike the fmt.Sscanf parsing
// this replaces, which silently accepted it.
func parseVal(reply string) (uint64, error) {
	rest, ok := strings.CutPrefix(reply, "VAL ")
	if !ok {
		return 0, fmt.Errorf("no VAL prefix in %q", reply)
	}
	return strconv.ParseUint(rest, 10, 64)
}

// MGet reads every key in one round trip, filling vals[i]/found[i] in
// key order. vals and found are reused when they have capacity (pass nil
// to let the client allocate); the re-sliced results are returned. At
// most proto.MaxOps keys.
func (cl *Client) MGet(keys []uint64, vals []uint64, found []bool) ([]uint64, []bool, error) {
	if len(keys) == 0 {
		return vals[:0], found[:0], nil
	}
	if err := cl.SendMGet(keys); err != nil {
		return vals, found, err
	}
	if err := cl.Flush(); err != nil {
		return vals, found, err
	}
	if cl.bin {
		op, p, err := cl.RecvReply()
		switch {
		case err != nil:
			return vals, found, err
		case op == proto.RepVals:
			vals, found, err = proto.DecodeVals(p, vals, found)
			if err == nil && len(vals) != len(keys) {
				err = fmt.Errorf("nvclient: MGET: %d entries for %d keys", len(vals), len(keys))
			}
			return vals, found, err
		case op == proto.RepErr:
			return vals, found, errFrame("MGET", p)
		}
		return vals, found, fmt.Errorf("nvclient: MGET: unexpected reply op %d", op)
	}
	reply, err := cl.Recv()
	if err != nil {
		return vals, found, err
	}
	return parseVals(reply, len(keys), vals, found)
}

// parseVals parses a text `VALS <n> <v|NIL>...` reply into the reused
// slices.
func parseVals(reply string, want int, vals []uint64, found []bool) ([]uint64, []bool, error) {
	f := strings.Fields(reply)
	if len(f) < 2 || f[0] != "VALS" {
		return vals, found, fmt.Errorf("nvclient: MGET: bad reply %q", reply)
	}
	n, err := strconv.Atoi(f[1])
	if err != nil || n != want || len(f) != 2+n {
		return vals, found, fmt.Errorf("nvclient: MGET: bad reply %q for %d keys", reply, want)
	}
	vals, found = vals[:0], found[:0]
	for _, tok := range f[2:] {
		if tok == "NIL" {
			vals = append(vals, 0)
			found = append(found, false)
			continue
		}
		v, err := strconv.ParseUint(tok, 10, 64)
		if err != nil {
			return vals, found, fmt.Errorf("nvclient: MGET: bad value %q", tok)
		}
		vals = append(vals, v)
		found = append(found, true)
	}
	return vals, found, nil
}

// MPut durably stores every keys[i]→vals[i] pair in one round trip and
// one group-commit enqueue per server shard. len(vals) must equal
// len(keys); at most proto.MaxOps pairs. An MPut that returns nil
// survives any crash in full.
func (cl *Client) MPut(keys, vals []uint64) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("nvclient: MPUT: %d keys, %d vals", len(keys), len(vals))
	}
	if len(keys) == 0 {
		return nil
	}
	if err := cl.SendMPut(keys, vals); err != nil {
		return err
	}
	if err := cl.Flush(); err != nil {
		return err
	}
	if cl.bin {
		op, p, err := cl.RecvReply()
		switch {
		case err != nil:
			return err
		case op == proto.RepOK:
			return nil
		case op == proto.RepErr:
			return errFrame("MPUT", p)
		}
		return fmt.Errorf("nvclient: MPUT: unexpected reply op %d", op)
	}
	reply, err := cl.Recv()
	if err != nil {
		return err
	}
	if reply != "OK" {
		return fmt.Errorf("nvclient: MPUT: %s", reply)
	}
	return nil
}

// Stats fetches and parses one STATS snapshot (both modes; the binary
// reply carries the text rendering, so the schema is identical).
func (cl *Client) Stats() (*Stats, error) {
	if cl.bin {
		if err := cl.SendStats(); err != nil {
			return nil, err
		}
		if err := cl.Flush(); err != nil {
			return nil, err
		}
		op, p, err := cl.RecvReply()
		switch {
		case err != nil:
			return nil, err
		case op == proto.RepErr:
			return nil, errFrame("STATS", p)
		case op != proto.RepStats:
			return nil, fmt.Errorf("nvclient: STATS: unexpected reply op %d", op)
		}
		lines := strings.Split(strings.TrimSpace(string(p)), "\n")
		return ParseStats(lines)
	}
	lines, err := cl.DoMulti("STATS", "END")
	if err != nil {
		return nil, err
	}
	return ParseStats(lines)
}
