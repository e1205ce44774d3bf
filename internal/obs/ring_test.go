package obs

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRingProperty: for random push counts over capacities {1, 2, 7, 64},
// Items is the last min(n, cap) pushes in push order and Dropped is
// max(0, n − cap) — after every single push, not only at the end, so every
// head position of every fill level is checked.
func TestRingProperty(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(19))
	for _, capacity := range []int{1, 2, 7, 64} {
		for trial := 0; trial < 20; trial++ {
			r := NewRing[int](capacity)
			var pushed []int
			for n := rng.Intn(4*capacity + 2); len(pushed) < n; {
				v := rng.Int()
				r.Push(v)
				pushed = append(pushed, v)

				want := pushed[max(0, len(pushed)-capacity):]
				if got := r.Items(); !slices.Equal(got, want) {
					t.Fatalf("cap %d after %d pushes: Items = %v, want %v", capacity, len(pushed), got, want)
				}
				if r.Len() != len(want) {
					t.Fatalf("cap %d after %d pushes: Len = %d, want %d", capacity, len(pushed), r.Len(), len(want))
				}
				if got, want := r.Dropped(), int64(max(0, len(pushed)-capacity)); got != want {
					t.Fatalf("cap %d after %d pushes: Dropped = %d, want %d", capacity, len(pushed), got, want)
				}
			}
		}
	}
	// Items is a copy: the caller may keep it across later pushes.
	r := NewRing[int](2)
	r.Push(1)
	held := r.Items()
	r.Push(2)
	r.Push(3)
	if !slices.Equal(held, []int{1}) {
		t.Errorf("Items aliased the ring: held copy became %v", held)
	}
}
