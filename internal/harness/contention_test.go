package harness

import (
	"strings"
	"testing"
)

func TestStoreScalingSmoke(t *testing.T) {
	opt := DefaultContentionOptions()
	opt.Goroutines = []int{1, 2}
	opt.StoresPerThread = 4096
	res, err := StoreScaling(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if res.Rows[0].Speedup != 1 {
		t.Fatalf("baseline speedup %v", res.Rows[0].Speedup)
	}
	for _, r := range res.Rows {
		if r.Stores != int64(r.Goroutines)*4096 || r.StoresPerS <= 0 {
			t.Fatalf("row %+v", r)
		}
	}
	s := res.Table().String()
	for _, want := range []string{"goroutines", "stores/sec", "speedup"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
}
