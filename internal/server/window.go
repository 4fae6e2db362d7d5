package server

import (
	"strconv"

	"nvmcache/internal/kv"
	"nvmcache/internal/proto"
)

// windowSlots bounds a connection's window: the requests it has accepted
// but not yet answered. It matches the default shard queue depth — deeper
// than any one group commit, so a pipelining client keeps every shard
// writer's next batch full, and small enough that a connection's footprint
// stays a few tens of kilobytes. A client that pipelines further is not
// refused: each request beyond the bound first waits out the oldest one.
const windowSlots = 256

// slotKind says how a window slot turns into a reply.
type slotKind uint8

const (
	// Mutations in flight: the reply is decided by the slot's ticket.
	slotAck     slotKind = iota // PUT, MPUT: OK | ERR
	slotDel                     // DEL: OK | NIL | ERR
	slotCounter                 // INCR, DECR: VAL | ERR
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

// window is one connection's request window, shared by both dialects. The
// handler decodes every request it can already read and hands each to the
// window without waiting: a mutation is submitted to its shard writer at
// once (so a pipelined window of writes shares group commits instead of
// committing one by one), and replies are emitted strictly in request order
// as completions land.
//
// Ordering contract, per connection: a read observes every earlier write of
// its own connection and none of its later ones. A later write cannot be
// seen because a read executes when it is decoded, before anything behind
// it is submitted. An earlier write is seen because the read first waits
// for it: a GET for this connection's newest write in flight on the key's
// shard (and so, replies being in order, for the requests before that
// write) — a GET whose shard has none runs immediately — and the
// whole-store reads (MGET, SCAN, STATS) for every write the connection has
// in flight. Writes to one shard commit in request order. Nothing is
// promised about other connections' writes beyond the store's own
// guarantees.
type window struct {
	st   *kv.Store
	text bool
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
}

func newWindow(st *kv.Store, text bool) *window {
	return &window{st: st, text: text, out: make([]byte, 0, connBufSize),
		lastWrite: make([]uint64, st.Shards())}
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

// submit hands a single-key mutation to its shard writer and moves on.
func (w *window) submit(kind slotKind, op kv.Op, k, v uint64) {
	s := w.push(kind)
	w.st.Submit(&s.ticket, op, k, v)
	w.lastWrite[w.st.ShardFor(k)] = w.tail
}

// submitBatch is submit for an MPUT.
func (w *window) submitBatch(pairs []kv.Pair) {
	s := w.push(slotAck)
	w.st.SubmitBatch(&s.ticket, pairs)
	w.lastBatch = w.tail
}

// get serves a GET: after this connection's writes in flight on the key's
// shard, otherwise at once — and when nothing at all is in flight, straight
// into the reply buffer.
func (w *window) get(k uint64) {
	w.drainTo(max(w.lastWrite[w.st.ShardFor(k)], w.lastBatch))
	v, ok, err := w.st.Get(k)
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
// number upTo, waiting for the mutations among them to complete.
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
			case s.kind == slotCounter:
				w.replyVal(res.Val)
			case s.kind == slotDel && !res.Found:
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
