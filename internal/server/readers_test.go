package server

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nvmcache/internal/nvclient"
)

// TestManyConnectionsRead: half as many connections again as a shard's
// reader table has slots pipeline GETs while a writer overwrites the keys
// in place and churns others through copy-on-write commits. Every GET
// answers with a value a PUT wrote for its key, and each connection reads
// its own PUT back through the queued path: connections whose reader hints
// collide, or that find every slot busy, still read correctly.
func TestManyConnectionsRead(t *testing.T) {
	const conns, keys, rounds, depth = 96, 128, 4, 32
	srv, cl := testServer(t, Options{})
	defer srv.Shutdown()
	tagged := func(k, r uint64) uint64 { return k<<32 | r }
	for k := uint64(0); k < keys; k++ {
		if err := cl.Put(k, tagged(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, conns+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := uint64(1); r <= 100; r++ {
			k := r % keys
			if err := cl.Put(k, tagged(k, r)); err != nil { // in place
				errs <- err
				return
			}
			if err := cl.Put(1<<20+r, r); err != nil { // an insert: copy-on-write
				errs <- err
				return
			}
			if _, err := cl.Do("DEL " + strconv.FormatUint(1<<20+r, 10)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for c := uint64(0); c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := readConn(srv.Addr().String(), c, keys, rounds, depth, tagged); err != nil {
				errs <- fmt.Errorf("connection %d: %w", c, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// readConn is one connection of TestManyConnectionsRead: rounds windows of
// depth GETs, then a PUT of its own key and a GET of it in one window.
func readConn(addr string, c, keys uint64, rounds, depth int, tagged func(k, r uint64) uint64) error {
	cl, err := nvclient.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for r := 0; r < rounds; r++ {
		for i := 0; i < depth; i++ {
			if err := cl.Send("GET " + strconv.FormatUint((c*7+uint64(r*depth+i))%keys, 10)); err != nil {
				return err
			}
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		for i := 0; i < depth; i++ {
			k := (c*7 + uint64(r*depth+i)) % keys
			reply, err := cl.Recv()
			if err != nil {
				return err
			}
			v, err := strconv.ParseUint(strings.TrimPrefix(reply, "VAL "), 10, 64)
			if !strings.HasPrefix(reply, "VAL ") || err != nil || v>>32 != k {
				return fmt.Errorf("GET %d answered %q", k, reply)
			}
		}
	}
	own := 1<<30 + c
	if err := cl.Send("PUT " + strconv.FormatUint(own, 10) + " " + strconv.FormatUint(tagged(own, 1), 10)); err != nil {
		return err
	}
	if err := cl.Send("GET " + strconv.FormatUint(own, 10)); err != nil {
		return err
	}
	if err := cl.Flush(); err != nil {
		return err
	}
	for _, want := range []string{"OK", "VAL " + strconv.FormatUint(tagged(own, 1), 10)} {
		if reply, err := cl.Recv(); err != nil || reply != want {
			return fmt.Errorf("own PUT/GET of %d: %q, %v; want %q", own, reply, err, want)
		}
	}
	return nil
}
