package locality

import "testing"

func TestProfileBurstMatchesGlue(t *testing.T) {
	burst := []uint64{1, 2, 3, 1, 2, 3, 4, 5, 1, 1}
	const maxSize = 10
	p := ProfileBurst(burst, maxSize)
	want := MRCFromReuse(ReuseAll(burst), maxSize)
	if len(p.MRC.Miss) != len(want.Miss) {
		t.Fatalf("curve length %d, want %d", len(p.MRC.Miss), len(want.Miss))
	}
	for c := range want.Miss {
		if p.MRC.Miss[c] != want.Miss[c] {
			t.Fatalf("Miss[%d] = %v, want %v", c, p.MRC.Miss[c], want.Miss[c])
		}
	}
	// 5 distinct lines, 5 reuses out of 10 writes.
	if p.WorkingSet != 5 {
		t.Errorf("WorkingSet = %v, want 5", p.WorkingSet)
	}
	if p.Hotness != 0.5 {
		t.Errorf("Hotness = %v, want 0.5", p.Hotness)
	}
	if p.Writes != 10 {
		t.Errorf("Writes = %d, want 10", p.Writes)
	}
}

func TestProfileBurstEmpty(t *testing.T) {
	p := ProfileBurst(nil, 4)
	if p.WorkingSet != 0 || p.Hotness != 0 || p.Writes != 0 {
		t.Fatalf("empty burst profile = %+v", p)
	}
	for c, m := range p.MRC.Miss {
		if m != 1 {
			t.Fatalf("Miss[%d] = %v, want 1", c, m)
		}
	}
}
