package kv

import (
	"reflect"
	"strings"
	"testing"

	"nvmcache/internal/atlas"
)

// TestEventsLeaveFlushCountsAlone: observing a store's persistence
// boundaries changes none of its flush counts. One sequence of batched
// inserts (whose FASEs evict mid-FASE), lone inserts, in-place overwrites
// and deletes reports the same flush_async, flush_drained and
// flush_barriers with Events set as without.
func TestEventsLeaveFlushCountsAlone(t *testing.T) {
	run := func(ev atlas.Events) []string {
		opts := DefaultOptions()
		opts.Shards = 1
		opts.Events = ev
		s := newStore(t, opts)
		defer s.Close()
		pairs := make([]Pair, 256)
		for base := 0; base < 4096; base += len(pairs) {
			for i := range pairs {
				pairs[i] = Pair{K: 16 * uint64(base+i), V: 1}
			}
			if err := s.PutBatch(pairs); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(0); k < 64; k++ {
			if err := s.Put(16*k+1, 2); err != nil { // insert
				t.Fatal(err)
			}
			if err := s.Put(16*k, 3); err != nil { // in place
				t.Fatal(err)
			}
			if _, err := s.Delete(16*k + 1); err != nil {
				t.Fatal(err)
			}
		}
		var flush []string
		for _, p := range s.Stats()[0].Pairs() {
			if strings.HasPrefix(p, "flush_async=") || strings.HasPrefix(p, "flush_drained=") ||
				strings.HasPrefix(p, "flush_barriers=") {
				flush = append(flush, p)
			}
		}
		return flush
	}
	plain := run(nil)
	observed := run(func(atlas.Site, int, uint64) {})
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("flush counts with Events %v, without %v", observed, plain)
	}
	if plain[0] == "flush_async=0" || plain[2] == "flush_drained=0" {
		t.Fatalf("the sequence must flush both mid-FASE and at drains: %v", plain)
	}
	t.Log(plain)
}
