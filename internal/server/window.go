package server

import (
	"fmt"
	"strconv"
	"strings"

	"nvmcache/internal/kv"
	"nvmcache/internal/proto"
)

// windowSlots bounds a connection's window: the requests it has accepted but
// not yet answered. It matches the default shard queue depth, so one
// connection's window never finds a queue full on its own; it is deeper than
// any one group commit, so the first wait on each shard commits full batches
// of the window; and it is small enough that a connection's footprint stays
// a few tens of kilobytes. A client that pipelines further is not refused:
// each request beyond the bound first waits out the oldest one.
const windowSlots = 256

// slotKind says how a window slot turns into a reply.
type slotKind uint8

const (
	// Requests in flight: the reply is decided by the slot's ticket.
	slotAck     slotKind = iota // PUT, MPUT: OK | ERR
	slotDel                     // DEL: OK | NIL | ERR
	slotCounter                 // INCR, DECR: VAL | ERR
	slotGet                     // GET queued behind a write: VAL | NIL | ERR
	// Replies already decided (a GET served at once, a request rejected at
	// decode) that only wait their turn behind earlier mutations.
	slotVal
	slotNil
	slotErr
)

type slot struct {
	kind   slotKind
	val    uint64 // slotVal
	msg    string // slotErr
	ticket kv.Ticket
}

// window is one connection's request window, shared by both dialects, and
// the one place each verb executes (exec), replying in the connection's
// dialect; the handlers only parse. A handler decodes every request it can
// already read and hands each to the window without waiting: a mutation is
// queued on its shard at once, and the replies are emitted strictly in
// request order. Emitting a reply
// waits on its ticket, which commits whatever that shard has queued, so
// the handler's own goroutine commits its window — a pipelined window of
// writes shares group commits instead of committing one by one, and the
// writes of other connections queued on the same shard ride along.
//
// Ordering contract, per connection: a read observes every earlier write of
// its own connection and none of its later ones. A later write cannot be
// seen because a read is decoded, and so executed or queued, before
// anything behind it is submitted. An earlier write is seen because the
// read is ordered after it. A GET with a write of this connection in flight
// on the key's shard (or an MPUT, which has a part queued on every shard it
// touches) is queued on that shard behind it, answered by its commit at
// its queue position and acked with that batch, after the durable commit;
// a GET whose shard has none reads the committed snapshot at once.
// The whole-store reads (MGET, SCAN, STATS) first wait for every write the
// connection has in flight. Requests to one shard apply in request order.
// Nothing is promised about other connections' writes beyond the store's
// own guarantees.
type window struct {
	st   *kv.Store
	text bool
	// hint is the connection's place in each shard's reader table (see
	// kv.Store.GetHinted): a connection's GETs keep reusing one slot's
	// cache line, and connections spread over the table.
	hint uint32
	// out holds the replies emitted so far, in request order, until the
	// handler's next coalesced write.
	out []byte

	slots [windowSlots]slot
	// head and tail are request sequence numbers: the oldest unanswered
	// request and the next one to arrive. base is the sequence number that
	// maps to slots[0]; it moves up whenever the window empties, so a
	// shallow pipeline keeps reusing the first few slots.
	head, tail, base uint64
	// lastWrite[shard] is tail just after this connection's newest write to
	// the shard, lastBatch the same for its newest multi-shard write: a
	// write is in flight exactly while that mark is above head.
	lastWrite []uint64
	lastBatch uint64

	// The connection's operand and result buffers for the batched verbs,
	// reused: the parsers fill keys, vals and pairs, mget vals and found.
	keys  []uint64
	vals  []uint64
	found []bool
	pairs []kv.Pair
}

func newWindow(st *kv.Store, text bool, hint uint32) *window {
	return &window{st: st, text: text, hint: hint, out: make([]byte, 0, connBufSize),
		lastWrite: make([]uint64, st.Shards()),
		vals:      make([]uint64, 0, proto.MaxOps), found: make([]bool, proto.MaxOps)}
}

func (w *window) empty() bool { return w.head == w.tail }

func (w *window) slotAt(seq uint64) *slot { return &w.slots[(seq-w.base)%windowSlots] }

// push claims the next slot, waiting out the oldest request if the window
// is full.
func (w *window) push(kind slotKind) *slot {
	if w.tail-w.head == windowSlots {
		w.drainTo(w.head + 1)
	}
	if w.empty() {
		w.base = w.tail
	}
	s := w.slotAt(w.tail)
	w.tail++
	s.kind = kind
	return s
}

// exec executes one parsed request with opcode op: a and b are its key and
// value or delta, or SCAN's start and count; MGET's keys and MPUT's pairs
// are in the window's buffers. It reports whether the connection should
// close.
func (w *window) exec(op byte, a, b uint64) (quit bool) {
	switch op {
	case proto.OpPut, proto.OpDel, proto.OpIncr, proto.OpDecr:
		w.mutate(op, a, b)
	case proto.OpGet:
		w.get(a)
	case proto.OpScan:
		w.scan(a, b)
	case proto.OpMGet:
		w.mget()
	case proto.OpMPut:
		s := w.push(slotAck)
		w.st.SubmitBatch(&s.ticket, w.pairs)
		w.lastBatch = w.tail
	case proto.OpStats:
		w.stats()
	case proto.OpQuit:
		w.quit()
		return true
	}
	return false
}

// mutate queues a PUT, DEL, INCR or DECR (op) of k on its shard and moves
// on; v is the value or the delta.
func (w *window) mutate(op byte, k, v uint64) {
	kind, kop := slotAck, kv.OpPut
	switch op {
	case proto.OpDel:
		kind, kop = slotDel, kv.OpDel
	case proto.OpIncr:
		kind, kop = slotCounter, kv.OpIncr
	case proto.OpDecr:
		kind, kop = slotCounter, kv.OpDecr
	}
	s := w.push(kind)
	w.st.Submit(&s.ticket, kop, k, v)
	w.lastWrite[w.st.ShardFor(k)] = w.tail
}

// get serves a GET: queued behind this connection's writes in flight on the
// key's shard, otherwise at once — and when nothing at all is in flight,
// straight into the reply buffer.
func (w *window) get(k uint64) {
	if max(w.lastWrite[w.st.ShardFor(k)], w.lastBatch) > w.head {
		s := w.push(slotGet)
		w.st.Submit(&s.ticket, kv.OpGet, k, 0)
		return
	}
	v, ok, err := w.st.GetHinted(k, w.hint)
	switch {
	case err != nil:
		w.fail(err.Error())
	case !w.empty():
		if ok {
			w.push(slotVal).val = v
		} else {
			w.push(slotNil)
		}
	case ok:
		w.replyVal(v)
	default:
		w.replyNil()
	}
}

// scan answers a SCAN of up to n pairs (at most MaxScan) from start, after
// every write in flight.
func (w *window) scan(start, n uint64) {
	w.barrier()
	pairs, err := w.st.Scan(start, int(min(n, MaxScan)))
	if err != nil {
		w.replyErr(err.Error())
		return
	}
	if !w.text {
		w.out = proto.AppendRangeHeader(w.out, len(pairs))
		for _, p := range pairs {
			w.out = proto.AppendU64(w.out, p.K)
			w.out = proto.AppendU64(w.out, p.V)
		}
		return
	}
	w.out = strconv.AppendInt(append(w.out, "RANGE "...), int64(len(pairs)), 10)
	for _, p := range pairs {
		w.out = strconv.AppendUint(append(w.out, ' '), p.K, 10)
		w.out = strconv.AppendUint(append(w.out, ' '), p.V, 10)
	}
	w.out = append(w.out, '\n')
}

// mget answers an MGET of the window's keys (at most proto.MaxOps, which
// both parsers enforce) in input order, after every write in flight.
func (w *window) mget() {
	n := len(w.keys)
	vals, found := w.vals[:n], w.found[:n]
	w.barrier()
	if err := w.st.GetBatch(w.keys, vals, found); err != nil {
		w.replyErr(err.Error())
		return
	}
	if !w.text {
		w.out = proto.AppendValsHeader(w.out, n)
		for i := range vals {
			w.out = proto.AppendValsEntry(w.out, vals[i], found[i])
		}
		return
	}
	w.out = strconv.AppendInt(append(w.out, "VALS "...), int64(n), 10)
	for i := range vals {
		if found[i] {
			w.out = strconv.AppendUint(append(w.out, ' '), vals[i], 10)
		} else {
			w.out = append(w.out, " NIL"...)
		}
	}
	w.out = append(w.out, '\n')
}

// stats answers STATS, after every write in flight: one line per shard,
// the total line and the stripes line, which the text dialect ends with
// END.
func (w *window) stats() {
	w.barrier()
	var b strings.Builder
	stats := w.st.Stats()
	for _, st := range stats {
		fmt.Fprintln(&b, st)
	}
	fmt.Fprintln(&b, kv.Totals(stats))
	fmt.Fprintln(&b, w.st.StripeSummary())
	if !w.text {
		w.out = proto.AppendStatsReply(w.out, []byte(b.String()))
		return
	}
	w.out = append(w.out, b.String()...)
	w.out = append(w.out, "END\n"...)
}

// quit answers QUIT, after every request before it; the handler then
// closes the connection.
func (w *window) quit() {
	w.barrier()
	if w.text {
		w.out = append(w.out, "BYE\n"...)
	} else {
		w.out = proto.AppendBye(w.out)
	}
}

// fail answers a request with an error, in its turn.
func (w *window) fail(msg string) {
	if w.empty() {
		w.replyErr(msg)
		return
	}
	w.push(slotErr).msg = msg
}

// barrier waits for every request in the window and emits its reply: what
// a whole-store read, QUIT and the end of a readable burst do first.
func (w *window) barrier() { w.drainTo(w.tail) }

// drainTo emits, in order, the replies of every request before sequence
// number upTo, waiting for the queued requests among them to complete.
func (w *window) drainTo(upTo uint64) {
	for w.head < upTo {
		s := w.slotAt(w.head)
		w.head++
		switch s.kind {
		case slotVal:
			w.replyVal(s.val)
		case slotNil:
			w.replyNil()
		case slotErr:
			w.replyErr(s.msg)
			s.msg = ""
		default:
			res := s.ticket.Wait()
			switch {
			case res.Err != nil:
				w.replyErr(res.Err.Error())
			case s.kind == slotCounter, s.kind == slotGet && res.Found:
				w.replyVal(res.Val)
			case s.kind == slotGet, s.kind == slotDel && !res.Found:
				w.replyNil()
			default:
				w.replyOK()
			}
		}
	}
}

func (w *window) replyOK() {
	if w.text {
		w.out = append(w.out, "OK\n"...)
	} else {
		w.out = proto.AppendOK(w.out)
	}
}

func (w *window) replyNil() {
	if w.text {
		w.out = append(w.out, "NIL\n"...)
	} else {
		w.out = proto.AppendNil(w.out)
	}
}

func (w *window) replyVal(v uint64) {
	if w.text {
		w.out = append(w.out, "VAL "...)
		w.out = strconv.AppendUint(w.out, v, 10)
		w.out = append(w.out, '\n')
	} else {
		w.out = proto.AppendVal(w.out, v)
	}
}

func (w *window) replyErr(msg string) {
	if w.text {
		w.out = append(w.out, "ERR "...)
		w.out = append(w.out, msg...)
		w.out = append(w.out, '\n')
	} else {
		w.out = proto.AppendErr(w.out, msg)
	}
}
