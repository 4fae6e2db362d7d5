package kv

import (
	"sync"
	"testing"
	"time"

	"nvmcache/internal/adaptive"
	"nvmcache/internal/core"
)

// adaptiveOptions is a store configuration whose controller ticks fast and
// whose taps complete bursts quickly, so convergence is observable within a
// test deadline.
func adaptiveOptions() Options {
	opts := DefaultOptions()
	opts.Shards = 2
	opts.Adaptive = adaptive.Config{
		Enabled:     true,
		Interval:    2 * time.Millisecond,
		BurstLength: 256,
		Hibernation: 256,
		Hysteresis:  0.01,
	}
	return opts
}

// TestAdaptiveControllerConverges drives a hot-key workload through a live
// store and waits for the control plane to sample it and retarget the
// write-cache capacity away from the offline default.
func TestAdaptiveControllerConverges(t *testing.T) {
	s := newStore(t, adaptiveOptions())
	defer s.Close()
	if s.opts.Policy != core.SoftCacheOffline {
		t.Fatalf("adaptive store runs policy %v, want SoftCacheOffline", s.opts.Policy)
	}

	deadline := time.Now().Add(10 * time.Second)
	var k uint64
	for time.Now().Before(deadline) {
		// A small hot set recycled continuously: every shard's line stream
		// has strong reuse, so bursts complete and knees exist.
		for i := 0; i < 256; i++ {
			if err := s.Put(k%64, k); err != nil {
				t.Fatal(err)
			}
			k++
		}
		gauges := s.AdaptiveGauges()
		if gauges == nil {
			t.Fatal("AdaptiveGauges() = nil on an adaptive store")
		}
		resized := 0
		for _, g := range gauges {
			if g.Sampled > 0 && g.Resizes > 0 {
				resized++
			}
		}
		if resized == len(gauges) {
			decs := s.AdaptiveDecisions()
			if len(decs) == 0 {
				t.Fatal("resizes recorded but the decision trajectory is empty")
			}
			for _, st := range s.Stats() {
				if st.AdaptiveCap <= 0 {
					t.Fatalf("shard %d: adaptive_cap=%d after a resize", st.Shard, st.AdaptiveCap)
				}
				if st.AdaptiveSample <= 0 || st.AdaptiveResizes <= 0 || st.AdaptiveLast <= 0 {
					t.Fatalf("shard %d: adaptive gauges not populated: %+v", st.Shard, st)
				}
			}
			return
		}
	}
	t.Fatalf("controller did not resize every shard within the deadline: %+v", s.AdaptiveGauges())
}

// TestAdaptiveGaugesNilWhenDisabled pins the off-state surface: nil gauge
// and decision slices, zero-valued adaptive_* STATS keys.
func TestAdaptiveGaugesNilWhenDisabled(t *testing.T) {
	s := newStore(t, DefaultOptions())
	defer s.Close()
	if g := s.AdaptiveGauges(); g != nil {
		t.Fatalf("AdaptiveGauges() = %v on a static store, want nil", g)
	}
	if d := s.AdaptiveDecisions(); d != nil {
		t.Fatalf("AdaptiveDecisions() = %v on a static store, want nil", d)
	}
	for _, st := range s.Stats() {
		if st.AdaptiveCap != 0 || st.AdaptiveResizes != 0 || st.AdaptiveSample != 0 {
			t.Fatalf("static store reports adaptive gauges: %+v", st)
		}
	}
}

// TestResizeRacesStoresAndDrains hammers RequestCacheResize from several
// goroutines while writers commit pipelined batches and observers read
// stats — the capacity handoff (atomic publication, applied at FASE end) and
// the batch-bound atomics must be race-clean. Run with -race.
func TestResizeRacesStoresAndDrains(t *testing.T) {
	opts := adaptiveOptions()
	opts.Pipeline = core.PipelineConfig{Enabled: true, Depth: 64, BatchSize: 16}
	s := newStore(t, opts)
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			k := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Put(k%512, k); err != nil {
					t.Error(err)
					return
				}
				k += 7
			}
		}(uint64(w) * 131)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		capacities := []int{1, 50, 8, 2, 33}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for sh := 0; sh < s.Shards(); sh++ {
				if !s.RequestCacheResize(sh, capacities[i%len(capacities)]) {
					t.Error("RequestCacheResize refused on a resizable policy")
					return
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Stats()
			s.AdaptiveGauges()
			s.AdaptiveDecisions()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every key the storm acked must read back.
	for k := uint64(0); k < 512; k++ {
		if _, _, err := s.Get(k); err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
