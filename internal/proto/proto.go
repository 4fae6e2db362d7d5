// Package proto is the length-prefixed binary wire protocol shared by
// internal/server, internal/nvclient and internal/loadgen — the one seam
// every layer of the serving stack speaks. It exists because the text
// line protocol spends its budget in the network layer (strings.Fields,
// strconv, fmt per request) precisely where the persistence stack no
// longer does: with software caching driving per-op persistence cost
// toward the hardware floor, the wire path must not reintroduce per-op
// allocation and parsing overhead.
//
// # Frame layout
//
// Every frame — request or reply — is a 6-byte header followed by an
// opcode-specific payload, all integers little-endian:
//
//	byte 0      Version (0xB1)
//	byte 1      opcode (Op* for requests, Rep* for replies)
//	bytes 2..5  uint32 payload length (≤ MaxPayload)
//	bytes 6..   payload
//
// The version byte has the high bit set, which no text-protocol request
// can start with (text requests begin with an ASCII verb), so a server
// sniffs the first byte of a connection to pick the protocol: both
// dialects are served on the same port and existing text tooling keeps
// working unchanged. The byte is repeated on every frame, so framing
// errors are detected immediately instead of silently resynchronizing.
//
// # Request payloads
//
//	OpPut    key u64, val u64                 (16 bytes)
//	OpGet    key u64                          (8)
//	OpDel    key u64                          (8)
//	OpIncr   key u64, delta u64               (16)
//	OpDecr   key u64, delta u64               (16)
//	OpScan   start u64, count u32             (12)
//	OpMGet   count u32, count × key u64
//	OpMPut   count u32, count × (key u64, val u64)
//	OpStats  (empty)
//	OpQuit   (empty)
//
// # Reply payloads
//
//	RepOK    (empty)                          PUT, MPUT ack-after-flush
//	RepVal   val u64                          GET hit, INCR/DECR post-op value
//	RepNil   (empty)                          GET/DEL miss
//	RepErr   utf-8 message
//	RepRange count u32, count × (key u64, val u64)
//	RepVals  count u32, count × (found u8, val u64)   MGET, input order
//	RepStats utf-8 STATS text (the line-protocol rendering, END excluded)
//	RepBye   (empty)                          QUIT; the server closes
//
// # Zero allocation
//
// Encoding is append-style over caller-owned buffers (Append*), decoding
// returns values or fills caller-owned slices (Decode*), and ReadFrame
// hands back a payload that aliases the bufio.Reader's internal buffer
// (bufio.Peek) whenever the frame fits — zero-copy, zero-alloc on the
// steady-state hot path. The testing.AllocsPerRun gates in proto_test.go,
// internal/server and internal/nvclient pin this down.
package proto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

const (
	// Version is the frame-leading protocol byte. The high bit is set so
	// no binary frame can be confused with a text-protocol request, whose
	// first byte is always an ASCII verb character.
	Version = 0xB1
	// HeaderSize is the fixed frame header: version, opcode, payload len.
	HeaderSize = 6
	// MaxPayload bounds one frame's payload; a larger length prefix is a
	// framing error (the connection is torn down rather than trusted to
	// resynchronize).
	MaxPayload = 1 << 20
	// MaxOps bounds the entries one MGET/MPUT frame may carry, mirroring
	// the text protocol's SCAN cap: one frame's pairs to one shard commit as
	// one FASE, whose page copies come out of the shard's pool, and an
	// unbounded count prefix would let one frame demand arbitrary memory.
	MaxOps = 512
)

// Request opcodes.
const (
	OpPut byte = iota + 1
	OpGet
	OpDel
	OpIncr
	OpDecr
	OpScan
	OpMGet
	OpMPut
	OpStats
	OpQuit
)

// Reply opcodes.
const (
	RepOK byte = iota + 1
	RepVal
	RepNil
	RepErr
	RepRange
	RepVals
	RepStats
	RepBye
)

// Error is a protocol violation: bad version byte, oversized or
// truncated payload, or an op-count prefix beyond MaxOps. A server
// answers one with an error frame and closes the connection (framing
// cannot be trusted past it); a client treats the connection as dead.
type Error struct{ Msg string }

func (e *Error) Error() string { return "proto: " + e.Msg }

func protoErrf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// appendHeader appends a frame header for payload length n.
func appendHeader(buf []byte, op byte, n int) []byte {
	return append(buf, Version, op,
		byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
}

// AppendU64 appends one little-endian uint64 (RepRange pair halves and
// any other trailing operand).
func AppendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// U64 decodes the little-endian uint64 at p[0:8]; the caller has
// validated the length.
func U64(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

// --- Request encoders -------------------------------------------------

// AppendPut appends a PUT request frame.
func AppendPut(buf []byte, k, v uint64) []byte {
	buf = appendHeader(buf, OpPut, 16)
	buf = AppendU64(buf, k)
	return AppendU64(buf, v)
}

// AppendGet appends a GET request frame.
func AppendGet(buf []byte, k uint64) []byte {
	return AppendU64(appendHeader(buf, OpGet, 8), k)
}

// AppendDel appends a DEL request frame.
func AppendDel(buf []byte, k uint64) []byte {
	return AppendU64(appendHeader(buf, OpDel, 8), k)
}

// AppendIncr appends an INCR request frame.
func AppendIncr(buf []byte, k, d uint64) []byte {
	buf = appendHeader(buf, OpIncr, 16)
	buf = AppendU64(buf, k)
	return AppendU64(buf, d)
}

// AppendDecr appends a DECR request frame.
func AppendDecr(buf []byte, k, d uint64) []byte {
	buf = appendHeader(buf, OpDecr, 16)
	buf = AppendU64(buf, k)
	return AppendU64(buf, d)
}

// AppendScan appends a SCAN request frame.
func AppendScan(buf []byte, start uint64, n uint32) []byte {
	buf = appendHeader(buf, OpScan, 12)
	buf = AppendU64(buf, start)
	return binary.LittleEndian.AppendUint32(buf, n)
}

// AppendMGet appends an MGET request frame for keys.
func AppendMGet(buf []byte, keys []uint64) []byte {
	buf = appendHeader(buf, OpMGet, 4+8*len(keys))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = AppendU64(buf, k)
	}
	return buf
}

// AppendMPut appends an MPUT request frame for the parallel keys/vals
// slices (len(vals) must equal len(keys)).
func AppendMPut(buf []byte, keys, vals []uint64) []byte {
	buf = appendHeader(buf, OpMPut, 4+16*len(keys))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for i, k := range keys {
		buf = AppendU64(buf, k)
		buf = AppendU64(buf, vals[i])
	}
	return buf
}

// AppendStats appends a STATS request frame.
func AppendStats(buf []byte) []byte { return appendHeader(buf, OpStats, 0) }

// AppendQuit appends a QUIT request frame.
func AppendQuit(buf []byte) []byte { return appendHeader(buf, OpQuit, 0) }

// --- Reply encoders ---------------------------------------------------

// AppendOK appends an OK reply frame.
func AppendOK(buf []byte) []byte { return appendHeader(buf, RepOK, 0) }

// AppendVal appends a VAL reply frame.
func AppendVal(buf []byte, v uint64) []byte {
	return AppendU64(appendHeader(buf, RepVal, 8), v)
}

// AppendNil appends a NIL reply frame.
func AppendNil(buf []byte) []byte { return appendHeader(buf, RepNil, 0) }

// AppendErr appends an error reply frame carrying msg.
func AppendErr(buf []byte, msg string) []byte {
	return append(appendHeader(buf, RepErr, len(msg)), msg...)
}

// AppendBye appends a BYE reply frame.
func AppendBye(buf []byte) []byte { return appendHeader(buf, RepBye, 0) }

// AppendRangeHeader appends a RANGE reply header for count pairs; the
// caller appends 2×count AppendU64 operands (key, val alternating).
func AppendRangeHeader(buf []byte, count int) []byte {
	buf = appendHeader(buf, RepRange, 4+16*count)
	return binary.LittleEndian.AppendUint32(buf, uint32(count))
}

// AppendValsHeader appends a VALS reply header for count entries; the
// caller appends count AppendValsEntry results in key order.
func AppendValsHeader(buf []byte, count int) []byte {
	buf = appendHeader(buf, RepVals, 4+9*count)
	return binary.LittleEndian.AppendUint32(buf, uint32(count))
}

// AppendValsEntry appends one VALS entry: a presence byte and the value.
func AppendValsEntry(buf []byte, v uint64, found bool) []byte {
	f := byte(0)
	if found {
		f = 1
	}
	return AppendU64(append(buf, f), v)
}

// AppendStatsReply appends a STATS reply frame whose payload is the
// text-protocol rendering (allocation is fine here: STATS is tooling, not
// the hot path).
func AppendStatsReply(buf []byte, text []byte) []byte {
	return append(appendHeader(buf, RepStats, len(text)), text...)
}

// --- Request decoders -------------------------------------------------

// DecodeKey decodes a GET/DEL payload.
func DecodeKey(p []byte) (k uint64, err error) {
	if len(p) != 8 {
		return 0, protoErrf("key payload is %d bytes, want 8", len(p))
	}
	return U64(p), nil
}

// DecodeKV decodes a PUT/INCR/DECR payload (key, value-or-delta).
func DecodeKV(p []byte) (k, v uint64, err error) {
	if len(p) != 16 {
		return 0, 0, protoErrf("key/value payload is %d bytes, want 16", len(p))
	}
	return U64(p), U64(p[8:]), nil
}

// DecodeScan decodes a SCAN payload.
func DecodeScan(p []byte) (start uint64, n uint32, err error) {
	if len(p) != 12 {
		return 0, 0, protoErrf("scan payload is %d bytes, want 12", len(p))
	}
	return U64(p), binary.LittleEndian.Uint32(p[8:]), nil
}

// decodeCount validates a count-prefixed payload: count ≤ MaxOps and the
// remaining payload is exactly count×stride bytes.
func decodeCount(p []byte, stride int) (int, []byte, error) {
	if len(p) < 4 {
		return 0, nil, protoErrf("count prefix truncated (%d bytes)", len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n > MaxOps {
		return 0, nil, protoErrf("count %d exceeds MaxOps %d", n, MaxOps)
	}
	rest := p[4:]
	if len(rest) != n*stride {
		return 0, nil, protoErrf("count %d wants %d payload bytes, got %d", n, n*stride, len(rest))
	}
	return n, rest, nil
}

// DecodeMGet appends the payload's keys to keys (pass a reused slice,
// truncated by the callee) and returns the extended slice: zero-alloc
// once the buffer has grown to the working batch size.
func DecodeMGet(p []byte, keys []uint64) ([]uint64, error) {
	n, rest, err := decodeCount(p, 8)
	if err != nil {
		return keys[:0], err
	}
	keys = keys[:0]
	for i := 0; i < n; i++ {
		keys = append(keys, U64(rest[8*i:]))
	}
	return keys, nil
}

// DecodeMPut appends the payload's pairs to the parallel keys/vals
// slices (reused like DecodeMGet's).
func DecodeMPut(p []byte, keys, vals []uint64) ([]uint64, []uint64, error) {
	n, rest, err := decodeCount(p, 16)
	if err != nil {
		return keys[:0], vals[:0], err
	}
	keys, vals = keys[:0], vals[:0]
	for i := 0; i < n; i++ {
		keys = append(keys, U64(rest[16*i:]))
		vals = append(vals, U64(rest[16*i+8:]))
	}
	return keys, vals, nil
}

// --- Reply decoders ---------------------------------------------------

// DecodeVal decodes a VAL reply payload.
func DecodeVal(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, protoErrf("val payload is %d bytes, want 8", len(p))
	}
	return U64(p), nil
}

// DecodeRange decodes a RANGE reply payload into the parallel keys/vals
// slices (reused like DecodeMPut's).
func DecodeRange(p []byte) (keys, vals []uint64, err error) {
	return decodePairs(p, nil, nil)
}

// DecodeRangeInto is DecodeRange over caller-reused slices.
func DecodeRangeInto(p []byte, keys, vals []uint64) ([]uint64, []uint64, error) {
	return decodePairs(p, keys, vals)
}

func decodePairs(p []byte, keys, vals []uint64) ([]uint64, []uint64, error) {
	n, rest, err := decodeCount(p, 16)
	if err != nil {
		return keys[:0], vals[:0], err
	}
	keys, vals = keys[:0], vals[:0]
	for i := 0; i < n; i++ {
		keys = append(keys, U64(rest[16*i:]))
		vals = append(vals, U64(rest[16*i+8:]))
	}
	return keys, vals, nil
}

// DecodeVals decodes a VALS reply payload into the caller's vals/found
// slices (reused; returned re-sliced to the entry count).
func DecodeVals(p []byte, vals []uint64, found []bool) ([]uint64, []bool, error) {
	n, rest, err := decodeCount(p, 9)
	if err != nil {
		return vals[:0], found[:0], err
	}
	vals, found = vals[:0], found[:0]
	for i := 0; i < n; i++ {
		found = append(found, rest[9*i] != 0)
		vals = append(vals, U64(rest[9*i+1:]))
	}
	return vals, found, nil
}

// --- Frame reading ----------------------------------------------------

// ReadFrame reads one frame from r. The returned payload aliases the
// reader's internal buffer when the frame fits it (zero-copy) and
// *scratch otherwise (grown as needed, reused across calls); either way
// it is valid only until the next read on r. A *proto.Error return means
// the stream violated the protocol (bad version, oversized length) and
// the connection cannot be resynchronized; io errors pass through
// unchanged.
func ReadFrame(r *bufio.Reader, scratch *[]byte) (op byte, payload []byte, err error) {
	hdr, err := r.Peek(HeaderSize)
	if err != nil {
		return 0, nil, err
	}
	if hdr[0] != Version {
		return 0, nil, protoErrf("bad version byte 0x%02x", hdr[0])
	}
	op = hdr[1]
	n := int(binary.LittleEndian.Uint32(hdr[2:]))
	if n > MaxPayload {
		return 0, nil, protoErrf("payload length %d exceeds MaxPayload %d", n, MaxPayload)
	}
	if _, err := r.Discard(HeaderSize); err != nil {
		return 0, nil, err
	}
	if n == 0 {
		return op, nil, nil
	}
	if n <= r.Size() {
		payload, err = r.Peek(n)
		if err != nil {
			return 0, nil, err
		}
		if _, err := r.Discard(n); err != nil {
			return 0, nil, err
		}
		return op, payload, nil
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	payload = (*scratch)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return op, payload, nil
}

// Sniff reports whether the first byte of a connection opens a binary
// frame (versus a text-protocol request line).
func Sniff(first byte) bool { return first == Version }

// VerbName returns the text-protocol verb for a request opcode (constant
// strings — no allocation), or "?" for an unknown opcode. Server stall
// hooks and error messages share the text protocol's vocabulary through
// it.
func VerbName(op byte) string {
	switch op {
	case OpPut:
		return "PUT"
	case OpGet:
		return "GET"
	case OpDel:
		return "DEL"
	case OpIncr:
		return "INCR"
	case OpDecr:
		return "DECR"
	case OpScan:
		return "SCAN"
	case OpMGet:
		return "MGET"
	case OpMPut:
		return "MPUT"
	case OpStats:
		return "STATS"
	case OpQuit:
		return "QUIT"
	}
	return "?"
}
