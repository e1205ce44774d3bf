package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestOrderedMapConsumesInOrder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		var seen []int
		OrderedMap(n, func(i int) int { return i * i }, func(i, v int) {
			if v != i*i {
				t.Fatalf("n=%d: consume(%d) got %d, want %d", n, i, v, i*i)
			}
			seen = append(seen, i)
		})
		if len(seen) != n {
			t.Fatalf("n=%d: consumed %d values", n, len(seen))
		}
		for i, v := range seen {
			if v != i {
				t.Fatalf("n=%d: consume order %v", n, seen)
			}
		}
	}
}

func TestOrderedMapProducesEachOnce(t *testing.T) {
	const n = 500
	var produced [n]int32
	var consumed int32
	OrderedMap(n, func(i int) int {
		atomic.AddInt32(&produced[i], 1)
		return i
	}, func(i, v int) {
		consumed++
	})
	if consumed != n {
		t.Fatalf("consumed %d, want %d", consumed, n)
	}
	for i := range produced {
		if produced[i] != 1 {
			t.Fatalf("produce(%d) ran %d times", i, produced[i])
		}
	}
}

// TestOrderedMapBoundedWindow proves backpressure: with a slow consumer, a
// producer can never run more than workers+1 indexes ahead of the merge point.
func TestOrderedMapBoundedWindow(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 {
		t.Skip("needs parallel workers to observe the window")
	}
	const n = 200
	window := workers + 1
	var done int64 // consumer progress, read by producers
	var maxAhead int64
	OrderedMap(n, func(i int) int {
		if ahead := int64(i) - atomic.LoadInt64(&done); ahead > atomic.LoadInt64(&maxAhead) {
			atomic.StoreInt64(&maxAhead, ahead)
		}
		return i
	}, func(i, v int) {
		atomic.StoreInt64(&done, int64(i)+1)
	})
	// A produce(i) only starts once i-done < window held at claim time; the
	// observation above races the consumer by at most one step.
	if maxAhead > int64(window)+1 {
		t.Fatalf("producer ran %d ahead of consumer, window %d", maxAhead, window)
	}
}

func TestOrderedMapInlineAtOneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	// With one proc the calls must strictly alternate produce(i), consume(i).
	var trace []int
	OrderedMap(5, func(i int) int {
		trace = append(trace, i)
		return i
	}, func(i, v int) {
		trace = append(trace, -i-1)
	})
	want := []int{0, -1, 1, -2, 2, -3, 3, -4, 4, -5}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}
