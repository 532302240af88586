package bitset

import "testing"

func TestSetGetCount(t *testing.T) {
	b := New(130) // spans three words with a ragged tail
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set on fresh bitset", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	b.Reset()
	if got := b.Count(); got != 0 {
		t.Fatalf("Count after Reset = %d, want 0", got)
	}
}

func TestSetAllRespectsLength(t *testing.T) {
	b := New(70)
	b.SetAll()
	if got := b.Count(); got != 70 {
		t.Fatalf("Count after SetAll = %d, want 70", got)
	}
	bools := b.Bools()
	if len(bools) != 70 {
		t.Fatalf("Bools len = %d, want 70", len(bools))
	}
	for i, v := range bools {
		if !v {
			t.Fatalf("bit %d false after SetAll", i)
		}
	}
}
