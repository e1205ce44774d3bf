package snapshot

// Tests for the epoch history ring: monotonic append, bounded eviction,
// preserialized page contents, /debug/history data shape, and the -race
// hammer that publishes rollovers while readers walk the ring — history
// entries must stay dense, epoch-ascending, bounded by the keep limit, and
// must never mix one epoch's vectors with another's digest.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"countryrank/internal/asn"
)

// HistoryEpochs lists the retained epochs, oldest first.
func (st *Store) HistoryEpochs() []int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	hist := st.hist.Items()
	out := make([]int64, len(hist))
	for i, h := range hist {
		out[i] = h.epoch
	}
	return out
}

// rotScores rotates three ASes through the top ranks so consecutive epochs
// always differ (non-zero drift) and every epoch's ranking is a pure
// function of its number.
func rotScores(epoch int64) map[asn.ASN]float64 {
	asns := []asn.ASN{1221, 4826, 7545}
	m := make(map[asn.ASN]float64, len(asns))
	for i, a := range asns {
		m[a] = float64(3 - (int(epoch)+i)%3)
	}
	return m
}

func TestHistoryRingAppendAndEvict(t *testing.T) {
	st := NewStore(Assemble(driftData(1, rotScores(1)), Config{}))
	st.SetHistoryLimit(3)

	for e := int64(2); e <= 5; e++ {
		next := Assemble(driftData(e, rotScores(e)), Config{})
		st.Publish(next, Diff(st.Load(), next))
	}
	if eps := st.HistoryEpochs(); len(eps) != 3 || eps[0] != 3 || eps[2] != 5 {
		t.Fatalf("after 5 publishes with keep=3, ring = %v, want [3 4 5]", eps)
	}

	// A publish that does not advance the epoch is served but not recorded.
	replay := Assemble(driftData(5, rotScores(4)), Config{})
	st.Publish(replay, nil)
	if st.Load() != replay {
		t.Error("non-advancing publish was not served")
	}
	if eps := st.HistoryEpochs(); len(eps) != 3 || eps[2] != 5 {
		t.Errorf("non-advancing publish changed the ring: %v", eps)
	}

	// Tightening the limit trims eagerly.
	st.SetHistoryLimit(2)
	if eps := st.HistoryEpochs(); len(eps) != 2 || eps[0] != 4 {
		t.Errorf("after SetHistoryLimit(2), ring = %v, want [4 5]", eps)
	}
}

// historyPageDoc mirrors the preserialized /v1/countries/{cc}/history JSON.
type historyPageDoc struct {
	Country string           `json:"country"`
	Epochs  []int64          `json:"epochs"`
	Series  map[string][]int `json:"series"`
}

func TestHistoryPageServing(t *testing.T) {
	st := NewStore(Assemble(driftData(1, map[asn.ASN]float64{1221: 3, 4826: 2}), Config{}))
	h := NewHandler(st)

	w := get(t, h, "/v1/countries/AU/history", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET history = %d: %s", w.Code, w.Body.String())
	}
	etag1 := w.Header().Get("ETag")
	var page historyPageDoc
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatalf("history page invalid JSON: %v\n%s", err, w.Body.String())
	}
	if page.Country != "AU" || len(page.Epochs) != 1 || page.Epochs[0] != 1 {
		t.Fatalf("initial page = %+v, want country AU epochs [1]", page)
	}
	if got := page.Series["CCI:1221"]; len(got) != 1 || got[0] != 1 {
		t.Errorf("CCI:1221 series = %v, want [1]", got)
	}

	// Roll to an epoch where 4826 overtakes 1221; the page must grow a
	// second aligned column and change its ETag.
	next := Assemble(driftData(2, map[asn.ASN]float64{4826: 3, 1221: 2}), Config{})
	st.Publish(next, Diff(st.Load(), next))
	w = get(t, h, "/v1/countries/AU/history", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET history after rollover = %d", w.Code)
	}
	if et := w.Header().Get("ETag"); et == etag1 {
		t.Error("history page ETag unchanged across a rollover that changed the ring")
	}
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Epochs) != 2 || page.Epochs[1] != 2 {
		t.Fatalf("epochs after rollover = %v, want [1 2]", page.Epochs)
	}
	if got := page.Series["CCI:1221"]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("CCI:1221 series = %v, want [1 2]", got)
	}
	if got := page.Series["CCI:4826"]; len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Errorf("CCI:4826 series = %v, want [2 1]", got)
	}
	for name, s := range page.Series {
		if len(s) != len(page.Epochs) {
			t.Errorf("series %s has %d points for %d epochs", name, len(s), len(page.Epochs))
		}
	}

	// Conditional request against the current page.
	w = get(t, h, "/v1/countries/AU/history", map[string]string{"If-None-Match": w.Header().Get("ETag")})
	if w.Code != http.StatusNotModified {
		t.Errorf("conditional history GET = %d, want 304", w.Code)
	}
}

func TestHistoryData(t *testing.T) {
	st := NewStore(Assemble(driftData(1, map[asn.ASN]float64{1221: 3, 4826: 2}), Config{}))
	next := Assemble(driftData(2, map[asn.ASN]float64{4826: 3, 1221: 2}), Config{})
	d := Diff(st.Load(), next)
	if d == nil || d.MaxChurn == 0 {
		t.Fatalf("test pair produced no drift: %+v", d)
	}
	st.Publish(next, d)

	hd := st.HistoryData()
	if len(hd.Epochs) != 2 || hd.Epochs[0] != 1 || hd.Epochs[1] != 2 {
		t.Fatalf("epochs = %v, want [1 2]", hd.Epochs)
	}
	if hd.Digests[1] != next.Digest {
		t.Error("digest series does not carry the published snapshot's digest")
	}
	churn := hd.Series["churn_cci"]
	if len(churn) != 2 || churn[0] != 0 || churn[1] == 0 {
		t.Errorf("churn_cci series = %v, want [0 <nonzero>]", churn)
	}
	for name, s := range hd.Series {
		if len(s) != len(hd.Epochs) {
			t.Errorf("series %s has %d points for %d epochs", name, len(s), len(hd.Epochs))
		}
	}
}

// TestHistoryRingUnderConcurrentRollover is the -race hammer for the ring
// invariants: while a publisher rolls through epochs, concurrent readers
// must only ever observe ring states that are dense, epoch-ascending,
// within the keep limit, and whose digests match the snapshot actually
// published at that epoch (no mixing of one epoch's vectors into another's
// entry). The served history page must stay parseable and aligned.
func TestHistoryRingUnderConcurrentRollover(t *testing.T) {
	const keep = 4
	const epochs = 60

	snaps := make([]*Snapshot, epochs+1)
	wantDigest := map[int64]string{}
	for e := int64(1); e <= epochs; e++ {
		snaps[e] = Assemble(driftData(e, rotScores(e)), Config{})
		wantDigest[e] = snaps[e].Digest
	}

	st := NewStore(snaps[1])
	st.SetHistoryLimit(keep)
	h := NewHandler(st)

	var mu sync.Mutex
	var failures []string
	report := func(format string, args ...any) {
		mu.Lock()
		if len(failures) < 10 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hd := st.HistoryData()
				if len(hd.Epochs) > keep {
					report("ring holds %d epochs, keep is %d", len(hd.Epochs), keep)
				}
				for j, e := range hd.Epochs {
					if j > 0 && e != hd.Epochs[j-1]+1 {
						report("ring not dense/ascending: %v", hd.Epochs)
						break
					}
					if hd.Digests[j] != wantDigest[e] {
						report("epoch %d carries digest %s, want %s (mixed epochs)",
							e, shortDigest(hd.Digests[j]), shortDigest(wantDigest[e]))
					}
				}
				for name, s := range hd.Series {
					if len(s) != len(hd.Epochs) {
						report("series %s: %d points for %d epochs", name, len(s), len(hd.Epochs))
					}
				}

				w := get(t, h, "/v1/countries/AU/history", nil)
				if w.Code != http.StatusOK {
					report("GET history = %d", w.Code)
					continue
				}
				var page historyPageDoc
				if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
					report("history page unparseable mid-rollover: %v", err)
					continue
				}
				if len(page.Epochs) > keep {
					report("served page lists %d epochs, keep is %d", len(page.Epochs), keep)
				}
				for j := 1; j < len(page.Epochs); j++ {
					if page.Epochs[j] != page.Epochs[j-1]+1 {
						report("served page epochs not dense: %v", page.Epochs)
						break
					}
				}
				for name, s := range page.Series {
					if len(s) != len(page.Epochs) {
						report("served series %s misaligned: %d points, %d epochs", name, len(s), len(page.Epochs))
					}
				}
			}
		}()
	}

	for e := int64(2); e <= epochs; e++ {
		st.Publish(snaps[e], Diff(st.Load(), snaps[e]))
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, f := range failures {
		t.Error(f)
	}
	if eps := st.HistoryEpochs(); len(eps) != keep || eps[keep-1] != epochs {
		t.Errorf("final ring = %v, want last %d epochs ending at %d", eps, keep, epochs)
	}
}
