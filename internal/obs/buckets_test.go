package obs

import (
	"sort"
	"testing"
	"time"
)

// TestExpBuckets pins the 1-2.5-5 ladder: strictly increasing, spanning the
// requested range, derived from integer nanoseconds so the bucket edges are
// exact decimals.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(10*time.Microsecond, time.Second)
	want := []float64{
		1e-05, 2.5e-05, 5e-05, 0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
	}
	if len(got) != len(want) {
		t.Fatalf("ExpBuckets = %v (%d buckets), want %v", got, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("buckets not ascending: %v", got)
	}
}

func TestExpBucketsRanges(t *testing.T) {
	// A sub-decade range still produces at least one bucket reaching max.
	got := ExpBuckets(30*time.Millisecond, 40*time.Millisecond)
	if len(got) == 0 || got[len(got)-1] < 0.04 {
		t.Fatalf("ExpBuckets(30ms, 40ms) = %v", got)
	}
	// min == max collapses to a single bucket.
	got = ExpBuckets(time.Millisecond, time.Millisecond)
	if len(got) != 1 || got[0] != 0.001 {
		t.Fatalf("ExpBuckets(1ms, 1ms) = %v", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets with max < min should panic")
		}
	}()
	ExpBuckets(time.Second, time.Millisecond)
}
