package snapshot

// Tests for the drift diff engine: hand-checked churn arithmetic,
// determinism (including across a persist round trip, which is what lets
// cmd/rankdiff agree with the live supervisor), and the drift gate's three
// positions (reject, pass, gate 0).

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"countryrank/internal/asn"
	"countryrank/internal/obs"
	"countryrank/internal/rank"
)

// driftData builds a one-country world where all four country metrics and
// one global top share the given scores, so every metric's drift is the
// same hand-checkable pair diff.
func driftData(epoch int64, scores map[asn.ASN]float64) Data {
	r := func() *rank.Ranking { return rank.New("m", scores, testInfo, true) }
	return Data{
		Epoch: epoch,
		Countries: []CountryData{{
			Code: "AU", Name: "Australia",
			CCI: r(), CCN: r(), AHI: r(), AHN: r(),
		}},
		Tops: []TopData{{Metric: "ccg", Ranking: r()}},
	}
}

// TestDiffHandChecked pins the churn arithmetic on a pair small enough to
// verify by hand. Old ranking: 1221 > 4826 > 7545. New ranking:
// 4826 > 1221 > 9999 (7545 exited, 9999 entered).
func TestDiffHandChecked(t *testing.T) {
	old := Assemble(driftData(1, map[asn.ASN]float64{1221: 3, 4826: 2, 7545: 1}), Config{})
	new := Assemble(driftData(2, map[asn.ASN]float64{4826: 3, 1221: 2, 9999: 1}), Config{})

	d := Diff(old, new)
	if d == nil {
		t.Fatal("Diff returned nil for two assembled snapshots")
	}
	if d.OldEpoch != 1 || d.NewEpoch != 2 {
		t.Errorf("epochs %d->%d, want 1->2", d.OldEpoch, d.NewEpoch)
	}
	if len(d.Metrics) != 5 { // CCI, CCN, AHI, AHN, ccg
		t.Fatalf("got %d metric drifts, want 5", len(d.Metrics))
	}

	// Per pair: 1221 rank 1->2 (delta 1, weight 1), 4826 rank 2->1
	// (delta 1, weight 1), 7545 exits from rank 3 (virtual rank 4, delta 1,
	// weight 1/3), 9999 enters at rank 3 (delta 1, weight 1/3). Accumulated
	// in ascending-ASN order:
	want := 0.0
	want += 1.0       // 1221
	want += 1.0       // 4826
	want += 1.0 / 3.0 // 7545
	want += 1.0 / 3.0 // 9999
	for _, md := range d.Metrics {
		if md.Churn != want {
			t.Errorf("%s churn = %v, want %v", md.Metric, md.Churn, want)
		}
		if md.Moved != 2 || md.Entered != 1 || md.Exited != 1 {
			t.Errorf("%s moved/entered/exited = %d/%d/%d, want 2/1/1",
				md.Metric, md.Moved, md.Entered, md.Exited)
		}
		if md.MaxRankDelta != 1 {
			t.Errorf("%s max_rank_delta = %d, want 1", md.Metric, md.MaxRankDelta)
		}
		if md.Hist != [5]int{2, 0, 0, 0, 0} {
			t.Errorf("%s hist = %v, want [2 0 0 0 0]", md.Metric, md.Hist)
		}
		// All four movers carry score 1, so they order by ASN.
		if len(md.TopMovers) != 4 {
			t.Fatalf("%s has %d movers, want 4", md.Metric, len(md.TopMovers))
		}
		for i, wantASN := range []asn.ASN{1221, 4826, 7545, 9999} {
			if md.TopMovers[i].ASN != wantASN {
				t.Errorf("%s mover %d = AS%d, want AS%d", md.Metric, i, md.TopMovers[i].ASN, wantASN)
			}
		}
		if mv := md.TopMovers[2]; mv.OldRank != 3 || mv.NewRank != 0 {
			t.Errorf("7545 old/new rank = %d/%d, want 3/0 (exited)", mv.OldRank, mv.NewRank)
		}
		if mv := md.TopMovers[3]; mv.OldRank != 0 || mv.NewRank != 3 {
			t.Errorf("9999 old/new rank = %d/%d, want 0/3 (entered)", mv.OldRank, mv.NewRank)
		}
	}
	// The country metrics moved one country; the global top moves none.
	for _, md := range d.Metrics {
		wantCM := 1
		if md.Metric == "ccg" {
			wantCM = 0
		}
		if md.CountriesMoved != wantCM {
			t.Errorf("%s countries_moved = %d, want %d", md.Metric, md.CountriesMoved, wantCM)
		}
	}
	if d.MaxChurn != want {
		t.Errorf("MaxChurn = %v, want %v", d.MaxChurn, want)
	}
	if d.MaxRankDelta != 1 {
		t.Errorf("MaxRankDelta = %d, want 1", d.MaxRankDelta)
	}

	// The rendered report names the movers and closes with the same churn
	// string the metrics exposition would print.
	rep := d.Render(10)
	for _, frag := range []string{
		"top movers:",
		"rank 1 -> 2 (-1)",
		"exited from rank 3",
		"entered at rank 3",
		"max churn " + obs.FormatFloat(want),
	} {
		if !strings.Contains(rep, frag) {
			t.Errorf("report missing %q:\n%s", frag, rep)
		}
	}
	if sum := d.Summary(); !strings.Contains(sum, "epoch 1->2") ||
		!strings.Contains(sum, "max_churn="+obs.FormatFloat(want)) {
		t.Errorf("summary %q lacks epochs or churn", sum)
	}
}

// TestDiffIdenticalSnapshots: same data, later epoch → zero drift
// everywhere, empty mover lists.
func TestDiffIdenticalSnapshots(t *testing.T) {
	a := Assemble(testData(1), Config{})
	b := Assemble(testData(2), Config{})
	d := Diff(a, b)
	if d == nil {
		t.Fatal("Diff returned nil")
	}
	if d.MaxChurn != 0 || d.MaxRankDelta != 0 {
		t.Errorf("identical rankings drifted: churn %v, max delta %d", d.MaxChurn, d.MaxRankDelta)
	}
	for _, md := range d.Metrics {
		if md.Moved+md.Entered+md.Exited != 0 || len(md.TopMovers) != 0 {
			t.Errorf("%s reports movement on identical rankings: %+v", md.Metric, md)
		}
	}
	if !strings.Contains(d.Render(10), "(none: rankings unchanged)") {
		t.Error("report does not state that rankings are unchanged")
	}
}

// TestDiffNilSide: with no previous snapshot (or no next one) there is no
// drift, rather than a drift against nothing.
func TestDiffNilSide(t *testing.T) {
	s := Assemble(testData(1), Config{})
	if Diff(nil, s) != nil || Diff(s, nil) != nil {
		t.Error("Diff with a nil side did not return nil")
	}
}

// TestDiffDeterministicAcrossPersist pins the live/offline agreement: the
// drift of two snapshots equals — bit for bit, including churn floats and
// mover order — the drift of the same two snapshots after a save/load
// round trip. This is the property that lets the CI smoke compare
// cmd/rankdiff's report against rankd's live /metrics values.
func TestDiffDeterministicAcrossPersist(t *testing.T) {
	old := Assemble(driftData(1, map[asn.ASN]float64{1221: 3, 4826: 2, 7545: 1}), Config{})
	new := Assemble(driftData(2, map[asn.ASN]float64{4826: 5, 9999: 4, 1221: 1}), Config{})

	live := Diff(old, new)
	if live == nil {
		t.Fatal("Diff returned nil")
	}
	if again := Diff(old, new); !reflect.DeepEqual(live, again) {
		t.Error("two Diff runs over the same snapshots disagree")
	}

	p, err := NewPersister(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var loaded [2]*Snapshot
	for i, s := range []*Snapshot{old, new} {
		path, err := p.Save(s)
		if err != nil {
			t.Fatal(err)
		}
		if loaded[i], err = LoadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	offline := Diff(loaded[0], loaded[1])
	if offline == nil {
		t.Fatal("Diff over loaded snapshots returned nil")
	}
	if !reflect.DeepEqual(live.Metrics, offline.Metrics) {
		t.Errorf("offline drift disagrees with live drift:\n live %+v\noffl %+v", live.Metrics, offline.Metrics)
	}
	if live.MaxChurn != offline.MaxChurn {
		t.Errorf("offline MaxChurn %v != live %v", offline.MaxChurn, live.MaxChurn)
	}
	if live.Render(10) != offline.Render(10) {
		t.Error("offline report differs from live report")
	}
}

// TestSupervisorDriftGate pins -drift-gate in all three positions: an
// over-threshold rollover is refused (last-good keeps serving, no retry —
// like the degraded gate, rejection is not failure), an under-threshold
// rollover publishes, and gate 0 publishes the same upheaval with the drift
// still computed.
func TestSupervisorDriftGate(t *testing.T) {
	calm := map[asn.ASN]float64{1221: 3, 4826: 2, 7545: 1}
	upheaval := map[asn.ASN]float64{9999: 3, 8888: 2, 7777: 1} // full turnover

	t.Run("rejected over threshold", func(t *testing.T) {
		st := NewStore(Assemble(driftData(1, calm), Config{}))
		initial := st.Load()
		rejects0 := mDriftRejects.Value()
		var builds atomic.Int64
		cfg := fastBackoff
		cfg.DriftGate = 0.5
		cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
			builds.Add(1)
			return Assemble(driftData(epoch, upheaval), Config{}), nil
		}
		sup := NewSupervisor(st, cfg)
		defer sup.Close()
		sup.Trigger("test")
		waitFor(t, 2*time.Second, "drift rejection", func() bool {
			return mDriftRejects.Value() > rejects0
		})
		time.Sleep(30 * time.Millisecond) // would-be backoff window
		if st.Load() != initial {
			t.Error("over-threshold build replaced the serving snapshot")
		}
		if n := builds.Load(); n != 1 {
			t.Errorf("rejection retried the build %d times; rejection is not failure", n-1)
		}
		if eps := st.HistoryEpochs(); len(eps) != 1 || eps[0] != 1 {
			t.Errorf("rejected publish reached the history ring: %v", eps)
		}
	})

	t.Run("under threshold publishes", func(t *testing.T) {
		st := NewStore(Assemble(driftData(1, calm), Config{}))
		cfg := fastBackoff
		cfg.DriftGate = 100 // far above any churn this pair produces
		cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
			return Assemble(driftData(epoch, upheaval), Config{}), nil
		}
		sup := NewSupervisor(st, cfg)
		defer sup.Close()
		sup.Trigger("test")
		waitFor(t, 2*time.Second, "publish under gate", func() bool {
			s := st.Load()
			return s != nil && s.Epoch == 2
		})
		d := sup.LastDrift()
		if d == nil {
			t.Fatal("LastDrift nil after a published rollover")
		}
		if d.MaxChurn <= 0.5 {
			t.Errorf("full-turnover churn %v implausibly small", d.MaxChurn)
		}
		if eps := st.HistoryEpochs(); len(eps) != 2 || eps[1] != 2 {
			t.Errorf("history ring after publish = %v, want [1 2]", eps)
		}
	})

	t.Run("gate 0 publishes", func(t *testing.T) {
		st := NewStore(Assemble(driftData(1, calm), Config{}))
		cfg := fastBackoff
		cfg.DriftGate = 0
		cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
			return Assemble(driftData(epoch, upheaval), Config{}), nil
		}
		sup := NewSupervisor(st, cfg)
		defer sup.Close()
		sup.Trigger("test")
		waitFor(t, 2*time.Second, "ungated publish", func() bool {
			s := st.Load()
			return s != nil && s.Epoch == 2
		})
		if d := sup.LastDrift(); d == nil || d.MaxChurn <= 0.5 {
			t.Errorf("gate 0 must still compute the drift it lets through: %+v", d)
		}
	})
}
