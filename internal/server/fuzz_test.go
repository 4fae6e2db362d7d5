package server

import (
	"io"
	"net"
	"testing"
	"time"

	"nvmcache/internal/kv"
	"nvmcache/internal/proto"
)

// FuzzServerProto feeds arbitrary byte streams — text lines, binary
// frames, and garbage — to a live server over TCP. The properties under
// test: the handler never panics (a panic kills the shared server and
// every subsequent input fails to dial), always closes the connection
// once the input is exhausted (the read-to-EOF below would otherwise
// time out), and never leaks its goroutine (Shutdown in cleanup blocks
// on the handler WaitGroup, so a leak deadlocks the test binary).
func FuzzServerProto(f *testing.F) {
	opts := kv.DefaultOptions()
	opts.Shards = 2
	srv, err := SelfHost(opts, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			f.Errorf("shutdown after fuzzing: %v", err)
		}
	})

	// Well-formed text.
	f.Add([]byte("PUT 1 2\nGET 1\nSCAN 0 10\nSTATS\nQUIT\n"))
	f.Add([]byte("MPUT 1 10 2 20\nMGET 1 2 3\nINCR 4 1\nDECR 4 1\nDEL 1\n"))
	// Truncated and malformed text.
	f.Add([]byte("PUT 1 2"))
	f.Add([]byte("PUT 1\nBOGUS\nGET x\n\n\n"))
	// Well-formed binary.
	bin := proto.AppendPut(nil, 1, 2)
	bin = proto.AppendGet(bin, 1)
	bin = proto.AppendMPut(bin, []uint64{3, 4}, []uint64{30, 40})
	bin = proto.AppendMGet(bin, []uint64{1, 3, 9})
	bin = proto.AppendScan(bin, 0, 16)
	bin = proto.AppendStats(bin)
	bin = proto.AppendQuit(bin)
	f.Add(bin)
	// Binary framing violations: bad version, oversized length, truncated
	// header, payload shorter than declared, count over MaxOps.
	f.Add([]byte{0xff, 0x01, 0, 0, 0, 0})
	f.Add([]byte{proto.Version, proto.OpGet, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{proto.Version, proto.OpPut})
	f.Add([]byte{proto.Version, proto.OpPut, 16, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{proto.Version, proto.OpMGet, 4, 0, 0, 0, 0xff, 0xff, 0, 0})
	f.Add([]byte{proto.Version, 0x7f, 0, 0, 0, 0}) // unknown opcode

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatalf("dial (did a previous input kill the server?): %v", err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := c.Write(data); err != nil {
			// The server may close mid-write after a framing violation;
			// that is valid behavior, not a failure.
			return
		}
		c.(*net.TCPConn).CloseWrite()
		if _, err := io.Copy(io.Discard, c); err != nil {
			t.Fatalf("handler did not terminate the connection: %v", err)
		}
	})
}
