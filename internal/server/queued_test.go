package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nvmcache/internal/atlas"
	"nvmcache/internal/kv"
	"nvmcache/internal/mdb"
	"nvmcache/internal/pmem"
)

// parkedWriter holds a shard's committer at its ack site after one blocker
// write has committed, so that every request a window submits meanwhile
// queues up, and the window's first wait on the shard commits them as one
// batch once released.
type parkedWriter struct {
	armed            atomic.Bool
	entered, release chan struct{}
	blocker          chan error
}

func newParkedWriter() *parkedWriter {
	return &parkedWriter{entered: make(chan struct{}), release: make(chan struct{}),
		blocker: make(chan error, 1)}
}

// events is the store's Events: it parks at the ack site.
func (p *parkedWriter) events(site atlas.Site, _ int, _ uint64) {
	if site == atlas.SiteAck && p.armed.CompareAndSwap(true, false) {
		p.entered <- struct{}{}
		<-p.release
	}
}

// park commits a put of key b on a goroutine of its own and returns with
// that committer held in the hook, and b's shard's commit lock with it,
// until release.
func (p *parkedWriter) park(st *kv.Store, b uint64) {
	p.armed.Store(true)
	go func() { p.blocker <- st.Put(b, 1) }()
	<-p.entered
}

// afterRequests returns a Stall hook and a channel closed when the n-th
// request reaches the handler, that is, once the n-1 before it are
// submitted.
func afterRequests(n int32) (func(string), <-chan struct{}) {
	var seen atomic.Int32
	reached := make(chan struct{})
	return func(string) {
		if seen.Add(1) == n {
			close(reached)
		}
	}, reached
}

// startOnHeap serves a store opened on a heap the test keeps, so it can
// Recover it after a crash.
func startOnHeap(t *testing.T, kvOpts kv.Options, opts Options) (*Server, *pmem.Heap) {
	t.Helper()
	heap := pmem.New(2 * int(kv.RecommendedHeapBytes(kvOpts)))
	st, err := kv.Open(heap, kvOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Start(st, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, heap
}

func dialWindow(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, bufio.NewReader(c)
}

// sameShardKey returns a key other than k routed to k's shard.
func sameShardKey(st *kv.Store, k uint64) uint64 {
	for c := k + 1; ; c++ {
		if st.ShardFor(c) == st.ShardFor(k) {
			return c
		}
	}
}

func isCrashErr(rep string) bool {
	return strings.HasPrefix(rep, "ERR") && strings.Contains(rep, kv.ErrCrashed.Error())
}

// recoveredGet recovers the crashed store on heap and reads k from it.
func recoveredGet(t *testing.T, heap *pmem.Heap, k uint64) (uint64, bool) {
	t.Helper()
	st, _, err := kv.Recover(heap, kv.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v, ok, err := st.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	return v, ok
}

// TestWindowQueuedGetWaitsForCommit: a GET queued behind its own PUT
// shares that PUT's batch but is answered only with the batch's acks. If
// the batch never commits, the GET must not have exposed the PUT's value:
// a power failure before the commit answers it ERR, and an abort (pool
// exhaustion) answers it from the committed tree.
func TestWindowQueuedGetWaitsForCommit(t *testing.T) {
	const k, v1, v2 = 7, 1, 2
	t.Run("crash", func(t *testing.T) {
		dialects(t, func(t *testing.T, binary bool) {
			pw := newParkedWriter()
			var crash atomic.Bool
			kvOpts := kv.DefaultOptions()
			kvOpts.Shards = 2
			kvOpts.Events = func(site atlas.Site, shard int, arg uint64) {
				if site == atlas.SitePreCommit && crash.Load() {
					panic(atlas.Crash{Site: site})
				}
				pw.events(site, shard, arg)
			}
			stall, submitted := afterRequests(3)
			srv, heap := startOnHeap(t, kvOpts, Options{Stall: stall})
			defer srv.Shutdown()
			st := srv.Store()
			if err := st.Put(k, v1); err != nil {
				t.Fatal(err)
			}
			c, r := dialWindow(t, srv)
			defer c.Close()

			pw.park(st, sameShardKey(st, k))
			crash.Store(true)
			// The trailing GET (another shard, so answered at once) only
			// marks that the PUT and the queued GET are both submitted.
			ops := []wireOp{{"PUT", k, v2}, {"GET", k, 0}, {"GET", otherShardKey(st, k), 0}}
			if _, err := c.Write(encodeWindow(binary, ops)); err != nil {
				t.Fatal(err)
			}
			<-submitted
			pw.release <- struct{}{}
			got := readReplies(t, binary, r, len(ops))
			if !isCrashErr(got[0]) || !isCrashErr(got[1]) {
				t.Fatalf("PUT,GET in a batch that crashed before its commit replied %q, want two crash ERRs", got[:2])
			}
			if err := <-pw.blocker; err != nil {
				t.Fatalf("blocker put: %v", err)
			}
			<-st.Crashed()
			if v, ok := recoveredGet(t, heap, k); !ok || v != v1 {
				t.Fatalf("after Recover k = %d,%v, want %d", v, ok, v1)
			}
		})
	})
	t.Run("abort", func(t *testing.T) {
		dialects(t, func(t *testing.T, binary bool) {
			pw := newParkedWriter()
			kvOpts := kv.DefaultOptions()
			kvOpts.Shards = 1
			kvOpts.PoolPages = 16 // far too few for the window's fresh keys
			kvOpts.Events = pw.events
			// PUT k v2, GET k, then enough fresh keys to exhaust the pool in
			// the same FASE, then GET k again.
			const fresh = 60
			ops := []wireOp{{"PUT", k, v2}, {"GET", k, 0}}
			for i := uint64(0); i < fresh; i++ {
				ops = append(ops, wireOp{"PUT", 1000 + i, 1})
			}
			ops = append(ops, wireOp{"GET", k, 0})
			stall, submitted := afterRequests(int32(len(ops)))
			srv, _ := startOnHeap(t, kvOpts, Options{Stall: stall})
			defer srv.Shutdown()
			st := srv.Store()
			if err := st.Put(k, v1); err != nil {
				t.Fatal(err)
			}
			c, r := dialWindow(t, srv)
			defer c.Close()

			pw.park(st, k+1)
			if _, err := c.Write(encodeWindow(binary, ops)); err != nil {
				t.Fatal(err)
			}
			<-submitted
			pw.release <- struct{}{}
			got := readReplies(t, binary, r, len(ops))
			committed := fmt.Sprintf("VAL %d", v1)
			for i, rep := range got {
				switch i {
				case 1, len(ops) - 1:
					if rep != committed {
						t.Fatalf("GET %d of an aborted batch replied %q, want the committed %q", i, rep, committed)
					}
				default:
					if !strings.HasPrefix(rep, "ERR") || !strings.Contains(rep, mdb.ErrPoolExhausted.Error()) {
						t.Fatalf("PUT %d of an aborted batch replied %q, want a pool-exhaustion ERR", i, rep)
					}
				}
			}
			if err := <-pw.blocker; err != nil {
				t.Fatalf("blocker put: %v", err)
			}
			if v, ok, err := st.Get(k); err != nil || !ok || v != v1 {
				t.Fatalf("after the abort k = %d,%v,%v, want %d", v, ok, err, v1)
			}
		})
	})
}

// TestWindowQueuedGetReadsCounter: a GET queued behind its own INCR of the
// same key in one window reads the post-increment value, answered with the
// INCR's commit. A crash at the ack boundary answers both ERR, and the
// increment, durable before the crash, survives Recover.
func TestWindowQueuedGetReadsCounter(t *testing.T) {
	dialects(t, func(t *testing.T, binary bool) {
		var crashAck atomic.Bool
		kvOpts := kv.DefaultOptions()
		kvOpts.Shards = 2
		kvOpts.Events = func(site atlas.Site, _ int, _ uint64) {
			if site == atlas.SiteAck && crashAck.Load() {
				panic(atlas.Crash{Site: site})
			}
		}
		srv, heap := startOnHeap(t, kvOpts, Options{})
		defer srv.Shutdown()
		st := srv.Store()
		const k = 11
		if err := st.Put(k, 10); err != nil {
			t.Fatal(err)
		}
		c, r := dialWindow(t, srv)
		defer c.Close()
		ops := []wireOp{{"INCR", k, 5}, {"GET", k, 0}}

		if _, err := c.Write(encodeWindow(binary, ops)); err != nil {
			t.Fatal(err)
		}
		if got := readReplies(t, binary, r, len(ops)); got[0] != "VAL 15" || got[1] != "VAL 15" {
			t.Fatalf("INCR k 5, GET k replied %q, want VAL 15 twice", got)
		}
		if v, ok, err := st.Get(k); err != nil || !ok || v != 15 {
			t.Fatalf("committed k = %d,%v,%v after the GET's reply, want 15", v, ok, err)
		}

		crashAck.Store(true)
		if _, err := c.Write(encodeWindow(binary, ops)); err != nil {
			t.Fatal(err)
		}
		if got := readReplies(t, binary, r, len(ops)); !isCrashErr(got[0]) || !isCrashErr(got[1]) {
			t.Fatalf("INCR,GET with a crash at the ack replied %q, want two crash ERRs", got)
		}
		<-st.Crashed()
		if v, ok := recoveredGet(t, heap, k); !ok || v != 20 {
			t.Fatalf("after Recover k = %d,%v, want the incremented 20", v, ok)
		}
	})
}
