package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"nvmcache/internal/kv"
	"nvmcache/internal/proto"
)

// parityStep is one request in both dialects and its text reply, of which
// an ERR's is a prefix ("" when only parity is checked).
type parityStep struct {
	text string
	bin  []byte
	want string
}

// frameOf is a binary request frame with an arbitrary payload, so that a
// step can carry a malformed one.
func frameOf(op byte, payload []byte) []byte {
	b := []byte{proto.Version, op, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[2:], uint32(len(payload)))
	return append(b, payload...)
}

// exchange sends one scripted request in the connection's dialect and
// returns its reply as readReplies renders it.
func exchange(t *testing.T, c net.Conn, r *bufio.Reader, binary bool, s parityStep) string {
	t.Helper()
	req := append([]byte(s.text), '\n')
	if binary {
		req = s.bin
	}
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	return readReplies(t, binary, r, 1)[0]
}

// parityForm reduces a reply rendered by readReplies to what both dialects
// share: an ERR without its dialect's message, and STATS as each line's
// row and key set.
func parityForm(rep string) string {
	if strings.HasPrefix(rep, "ERR") {
		return "ERR"
	}
	if !strings.HasPrefix(rep, "shard=") {
		return rep
	}
	var rows []string
	for _, line := range strings.Split(rep, "\n") {
		var keys []string
		for _, tok := range strings.Fields(line) {
			k, _, _ := strings.Cut(tok, "=")
			keys = append(keys, k)
		}
		rows = append(rows, strings.Join(keys, " "))
	}
	return "STATS " + strings.Join(rows, " | ")
}

// TestDialectParity runs one scripted request list — every verb,
// well-formed and malformed, the largest key, and MGET/MPUT past
// proto.MaxOps — through each dialect against a fresh 2-shard store, and
// requires the same replies, each as scripted: the same OK/NIL/VAL/ERR,
// RANGE and VALS contents, STATS key set and BYE, with the connection
// closed after QUIT and the drained store still readable after Shutdown.
func TestDialectParity(t *testing.T) {
	over := make([]uint64, proto.MaxOps+1)
	overText := func(verb string, per int) string {
		return verb + strings.Repeat(" 1", per*len(over))
	}
	overBin := func(stride int) []byte {
		p := binary.LittleEndian.AppendUint32(nil, uint32(len(over)))
		return append(p, make([]byte, stride*len(over))...)
	}
	script := []parityStep{
		{"PUT 1 10", proto.AppendPut(nil, 1, 10), "OK"},
		{"PUT 2 20", proto.AppendPut(nil, 2, 20), "OK"},
		{"GET 1", proto.AppendGet(nil, 1), "VAL 10"},
		{"GET 3", proto.AppendGet(nil, 3), "NIL"},
		{"DEL 2", proto.AppendDel(nil, 2), "OK"},
		{"DEL 2", proto.AppendDel(nil, 2), "NIL"},
		{"INCR 5 3", proto.AppendIncr(nil, 5, 3), "VAL 3"},
		{"DECR 5 1", proto.AppendDecr(nil, 5, 1), "VAL 2"},
		{"DECR 6 1", proto.AppendDecr(nil, 6, 1), "VAL 18446744073709551615"},
		{"MPUT 7 70 8 80 9 90", proto.AppendMPut(nil, []uint64{7, 8, 9}, []uint64{70, 80, 90}), "OK"},
		{"MGET 1 2 5 8", proto.AppendMGet(nil, []uint64{1, 2, 5, 8}), "VALS 4 10 NIL 2 80"},
		{"SCAN 5 3", proto.AppendScan(nil, 5, 3), "RANGE 3 5 2 6 18446744073709551615 7 70"},
		{"SCAN 0 100000", proto.AppendScan(nil, 0, 100000), "RANGE 6 1 10 5 2 6 18446744073709551615 7 70 8 80 9 90"},
		{"PUT 18446744073709551615 7", proto.AppendPut(nil, 1<<64-1, 7), "OK"},
		{"GET 18446744073709551615", proto.AppendGet(nil, 1<<64-1), "VAL 7"},
		{"PUT 1", frameOf(proto.OpPut, make([]byte, 8)), "ERR usage: PUT"},
		{"GET x", frameOf(proto.OpGet, make([]byte, 16)), "ERR usage: GET"},
		{"DEL", frameOf(proto.OpDel, nil), "ERR usage: DEL"},
		{"INCR 1 x", frameOf(proto.OpIncr, make([]byte, 3)), "ERR usage: INCR"},
		{"DECR 1", frameOf(proto.OpDecr, make([]byte, 20)), "ERR usage: DECR"},
		{"SCAN 1", frameOf(proto.OpScan, make([]byte, 8)), "ERR usage: SCAN"},
		{"MGET 1 x", frameOf(proto.OpMGet, []byte{2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}), "ERR usage: MGET"},
		{"MPUT 1 2 3", frameOf(proto.OpMPut, []byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}), "ERR usage: MPUT"},
		{overText("MGET", 1), frameOf(proto.OpMGet, overBin(8)), "ERR MGET accepts at most 512 keys"},
		{overText("MPUT", 2), frameOf(proto.OpMPut, overBin(16)), "ERR MPUT accepts at most 512 pairs"},
		{"FROB 1", frameOf(0x7f, nil), `ERR unknown command "FROB"`},
		{"GET 9", proto.AppendGet(nil, 9), "VAL 90"}, // still serving after the errors
		{"STATS", proto.AppendStats(nil), ""},
		{"QUIT", proto.AppendQuit(nil), "BYE"},
	}
	run := func(binary bool) []string {
		opts := kv.DefaultOptions()
		opts.Shards = 2
		srv, err := SelfHost(opts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, r := dialWindow(t, srv)
		defer c.Close()
		// One request at a time, so a reply that goes missing is named.
		got := make([]string, 0, len(script))
		for _, s := range script {
			got = append(got, exchange(t, c, r, binary, s))
		}
		if rest, err := io.ReadAll(r); err != nil || len(rest) != 0 {
			t.Errorf("binary=%v: after QUIT read %q, %v; want the connection closed", binary, rest, err)
		}
		if err := srv.Shutdown(); err != nil {
			t.Fatal(err)
		}
		// The drained store still serves direct reads.
		if v, ok, err := srv.Store().Get(1<<64 - 1); err != nil || !ok || v != 7 {
			t.Errorf("binary=%v: Get after shutdown = %d, %v, %v", binary, v, ok, err)
		}
		return got
	}
	text, bin := run(false), run(true)
	for i, s := range script {
		name := fmt.Sprintf("request %d (%.16q)", i, s.text)
		if parityForm(text[i]) != parityForm(bin[i]) {
			t.Errorf("%s: text replies %q, binary %q", name, text[i], bin[i])
		}
		// An ERR's text message is pinned by its prefix.
		if s.want != "" && text[i] != s.want && !(strings.HasPrefix(s.want, "ERR ") && strings.HasPrefix(text[i], s.want)) {
			t.Errorf("%s: reply %q, want %q", name, text[i], s.want)
		}
	}
	if stats := parityForm(text[len(script)-2]); !strings.HasPrefix(stats, "STATS shard aborts avg_batch") || strings.Count(stats, "|") != 3 {
		t.Errorf("STATS reduced to %q, want two shard lines, a total line and a stripes line", stats)
	}
}
