package kv

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nvmcache/internal/core"
)

func pipelineOptions() Options {
	opts := DefaultOptions()
	opts.Shards = 4
	opts.Pipeline = core.PipelineConfig{Enabled: true, Depth: 128, BatchSize: 16}
	return opts
}

// TestPipelinedStoreServes is the normal-operation integration test for the
// overlapped commit protocol: concurrent clients, acked writes readable,
// pipeline counters surfaced through STATS, clean close, clean recovery.
func TestPipelinedStoreServes(t *testing.T) {
	opts := pipelineOptions()
	s := newStore(t, opts)
	const n = 500
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			errs[k] = s.Put(k, k*7+1)
		}(uint64(i))
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := s.Get(k)
		if err != nil || !ok || v != k*7+1 {
			t.Fatalf("Get(%d) = %d,%v,%v", k, v, ok, err)
		}
	}
	st := Totals(s.Stats())
	if st.Puts != n {
		t.Fatalf("stats: %+v", st)
	}
	if st.PipeEpochs == 0 {
		t.Fatalf("no pipeline epochs surfaced in stats: %+v", st)
	}
	if !strings.Contains(st.String(), "pipe_epochs=") {
		t.Fatalf("STATS line missing pipeline fields: %s", st.String())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rep, err := Recover(s.Heap(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FASEsRolledBack != 0 {
		t.Fatalf("clean shutdown rolled back FASEs: %+v", rep)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get(3); !ok || v != 3*7+1 {
		t.Fatalf("recovered Get(3) = %d,%v", v, ok)
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedCrashDuringTraffic crashes a pipelined store mid-traffic
// (an in-flight batch may be published but not yet settled) and checks the
// service contract: every acked write survives recovery with its exact
// value, and the recovered store passes its invariants.
func TestPipelinedCrashDuringTraffic(t *testing.T) {
	opts := pipelineOptions()
	s := newStore(t, opts)
	const writers = 8
	acked := make([]uint64, writers) // highest acked sequence per writer
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Put(w*1_000_000+i, i); err != nil {
					if errors.Is(err, ErrCrashed) {
						return
					}
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked[w] = i
			}
		}(uint64(w))
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	<-s.Crashed()
	s2, _, err := Recover(s.Heap(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for w := uint64(0); w < writers; w++ {
		for i := uint64(1); i <= acked[w]; i++ {
			v, ok, err := s2.Get(w*1_000_000 + i)
			if err != nil || !ok || v != i {
				t.Fatalf("acked write writer=%d seq=%d lost or torn: %d,%v,%v", w, i, v, ok, err)
			}
		}
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
