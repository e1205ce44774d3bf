package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// finishAfter completes a started request after a short controlled delay,
// with its latency measured from t0, so successive finishes have strictly
// increasing latencies.
func finishAfter(t *ReqTracker, rq *Req, route string, t0 time.Time, d time.Duration) {
	time.Sleep(d)
	t.Finish(rq, AccessEvent{Route: route, Status: 200, Bytes: 1, Latency: time.Since(t0)})
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
		tr.Finish(r, AccessEvent{Route: "country", Status: 200})
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
	t0 := time.Now()
	reqs := make([]*Req, 5)
	for i := range reqs {
		reqs[i] = tr.Start(fmt.Sprintf("/p/%d", i))
	}
	for _, r := range reqs {
		finishAfter(tr, r, "top", t0, 3*time.Millisecond)
	}
	slow := tr.Snapshot().Routes["top"].Slowest
	if len(slow) != 2 {
		t.Fatalf("slowest shelf holds %d, want 2", len(slow))
	}
	// All requests started together and finished sequentially, so the last
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
	r.Mark("parse")
	snap := tr.Snapshot()
	if len(snap.Active) != 1 || !snap.Active[0].Open || snap.Active[0].Path != "/inflight" {
		t.Fatalf("active = %+v", snap.Active)
	}
	tr.Finish(r, AccessEvent{Route: "country", Status: 200, Bytes: 42})
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
// allocations: one sampler decision, no record, nil-safe Mark/Finish.
func TestReqTrackerUnsampledPathAllocs(t *testing.T) {
	tr := NewReqTracker(1, 0, 8, 2)
	if allocs := testing.AllocsPerRun(500, func() {
		r := tr.Start("/v1/countries/AU")
		r.Mark("parse")
		tr.Finish(r, AccessEvent{Route: "country", Status: 200})
	}); allocs != 0 {
		t.Errorf("unsampled path: %.1f allocs/op, want 0", allocs)
	}
}

// TestReqTrackerMarkDuringSnapshot marks and finishes sampled requests from
// several goroutines while another renders and encodes the tracker, as
// /debug/requests does mid-traffic. Run under -race it checks that every
// read of an active request's marks goes through the tracker lock.
func TestReqTrackerMarkDuringSnapshot(t *testing.T) {
	tr := NewReqTracker(1, 1, 4, 2)
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := json.NewEncoder(io.Discard).Encode(tr.Snapshot()); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const workers, perWorker = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := tr.Start("/v1/countries/AU")
				r.Mark("parse")
				r.Mark("lookup")
				r.Mark("write")
				tr.Finish(r, AccessEvent{Route: "country", Status: 200, Bytes: 1})
			}
		}()
	}
	wg.Wait()
	close(done)
	reader.Wait()

	snap := tr.Snapshot()
	if snap.Sampled != workers*perWorker || len(snap.Active) != 0 {
		t.Fatalf("sampled %d with %d active, want %d and 0", snap.Sampled, len(snap.Active), workers*perWorker)
	}
	for _, rq := range snap.Routes["country"].Recent {
		if len(rq.Events) != 3 {
			t.Errorf("finished request holds %d marks, want 3", len(rq.Events))
		}
	}
}
