package obs

import (
	"fmt"
	"testing"
	"time"
)

// finish completes a started span after a short controlled delay so
// successive finishes have strictly increasing latencies.
func finishAfter(t *ReqTracker, r *Span, route string, d time.Duration) {
	time.Sleep(d)
	t.Finish(r, route, 200, 1)
}

// TestReqTrackerRecentEviction fills a 3-slot recent ring with 5 traces and
// checks the oldest two were evicted and the survivors come back
// oldest-first.
func TestReqTrackerRecentEviction(t *testing.T) {
	tr := NewReqTracker(1, 1, 3, 8)
	for i := 0; i < 5; i++ {
		r := tr.Start(fmt.Sprintf("/p/%d", i))
		if r == nil {
			t.Fatal("rate-1 tracker declined a request")
		}
		tr.Finish(r, "country", 200, 0)
	}
	snap := tr.Snapshot()
	recent := snap.Routes["country"].Recent
	if len(recent) != 3 {
		t.Fatalf("recent holds %d traces, want 3", len(recent))
	}
	for i, want := range []string{"/p/2", "/p/3", "/p/4"} {
		if recent[i].Path != want {
			t.Errorf("recent[%d] = %s, want %s (oldest-first)", i, recent[i].Path, want)
		}
	}
	if snap.Seen != 5 || snap.Sampled != 5 {
		t.Errorf("seen/sampled = %d/%d, want 5/5", snap.Seen, snap.Sampled)
	}
}

// TestReqTrackerSlowestShelf checks the slowest-N shelf keeps the N slowest
// traces in descending latency order, evicting the fastest exemplar.
func TestReqTrackerSlowestShelf(t *testing.T) {
	tr := NewReqTracker(1, 1, 8, 2)
	// Start all five up front, then finish them one by one with increasing
	// delays: later finishes are strictly slower.
	spans := make([]*Span, 5)
	for i := range spans {
		spans[i] = tr.Start(fmt.Sprintf("/p/%d", i))
	}
	for _, r := range spans {
		finishAfter(tr, r, "top", 3*time.Millisecond)
	}
	slow := tr.Snapshot().Routes["top"].Slowest
	if len(slow) != 2 {
		t.Fatalf("slowest shelf holds %d, want 2", len(slow))
	}
	// All spans started together and finished sequentially, so the last
	// finished are the slowest: /p/4, then /p/3.
	if slow[0].LatencyUS < slow[1].LatencyUS {
		t.Errorf("shelf not sorted slowest-first: %d < %d", slow[0].LatencyUS, slow[1].LatencyUS)
	}
	if slow[0].Path != "/p/4" || slow[1].Path != "/p/3" {
		t.Errorf("shelf = [%s %s], want [/p/4 /p/3]", slow[0].Path, slow[1].Path)
	}
}

// TestReqTrackerActive checks in-flight sampled requests appear in the
// active set until finished.
func TestReqTrackerActive(t *testing.T) {
	tr := NewReqTracker(1, 1, 8, 2)
	r := tr.Start("/inflight")
	r.Event("parse")
	snap := tr.Snapshot()
	if len(snap.Active) != 1 || !snap.Active[0].Open || snap.Active[0].Path != "/inflight" {
		t.Fatalf("active = %+v", snap.Active)
	}
	tr.Finish(r, "country", 200, 42)
	snap = tr.Snapshot()
	if len(snap.Active) != 0 {
		t.Errorf("finished trace still active")
	}
	got := snap.Routes["country"].Recent[0]
	if got.Status != 200 || got.Bytes != 42 || len(got.Events) != 1 || got.Events[0].Name != "parse" {
		t.Errorf("finished trace = %+v", got)
	}
}

// TestReqTrackerUnsampledPathAllocs pins the rate-0 fast path at zero
// allocations: one sampler decision, no span, nil-safe Event/Finish.
func TestReqTrackerUnsampledPathAllocs(t *testing.T) {
	tr := NewReqTracker(1, 0, 8, 2)
	if allocs := testing.AllocsPerRun(500, func() {
		r := tr.Start("/v1/countries/AU")
		r.Event("parse")
		tr.Finish(r, "country", 200, 0)
	}); allocs != 0 {
		t.Errorf("unsampled path: %.1f allocs/op, want 0", allocs)
	}
}
