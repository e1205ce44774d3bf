package experiments

import (
	"strings"
	"sync"
	"testing"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/relation"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

// Shared pipelines: experiments only read them, so building once keeps the
// test package fast. w21 is the world p21's collection was generated over,
// for the experiments that validate against ground truth.
var (
	pipeOnce sync.Once
	w21      *topology.World
	p21      *core.Pipeline
	p23      *core.Pipeline
)

func pipelines(t *testing.T) (*core.Pipeline, *core.Pipeline) {
	t.Helper()
	pipeOnce.Do(func() {
		opt := core.Options{Seed: 1, StubScale: 0.4, VPScale: 0.5}
		w21 = topology.Build(topology.Config{Seed: opt.Seed, StubScale: opt.StubScale, VPScale: opt.VPScale})
		p21 = core.NewPipelineFrom(w21, routing.BuildCollection(w21, opt.Routing), opt)
		p23 = core.NewPipeline(core.Options{
			Seed: 1, Scenario: topology.Mar2023, StubScale: 0.4, VPScale: 0.5,
		})
	})
	return p21, p23
}

func TestTable1(t *testing.T) {
	p, _ := pipelines(t)
	tb := RunTable1(p)
	if tb.Stats.Total == 0 || tb.Stats.Counts[0] == 0 {
		t.Fatal("empty accounting")
	}
	out := tb.Render()
	for _, want := range []string{"accepted", "unstable", "loop", "VP no location"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 render missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	out := RunTable2().Render()
	for _, want := range []string{"AHN,CCN", "AHI,CCI", "AHC", "CCG"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestTable4(t *testing.T) {
	p, _ := pipelines(t)
	tb := RunTable4(p)
	if len(tb.Rows) < 10 {
		t.Fatalf("too few rows: %d", len(tb.Rows))
	}
	if tb.Rows[0].Country != "NL" {
		t.Errorf("top VP country = %v, want NL (Table 4)", tb.Rows[0].Country)
	}
	for _, r := range tb.Rows {
		if r.Country == "US" {
			if r.ASNs < tb.Rows[0].ASNs {
				t.Errorf("US should have the largest AS census: %d vs NL %d", r.ASNs, tb.Rows[0].ASNs)
			}
			if r.Addresses == 0 || r.Prefixes == 0 {
				t.Error("US census empty")
			}
		}
	}
	if !strings.Contains(tb.Render(), "NL") {
		t.Error("render missing NL")
	}
}

func TestCaseStudyAndTable9(t *testing.T) {
	p, _ := pipelines(t)
	ccg, _ := p.Global()
	cs := RunCaseStudy(p, "AU", 2, ccg)
	if len(cs.Rows) < 3 {
		t.Fatalf("case study too small: %+v", cs.Rows)
	}
	found := map[uint32]bool{}
	for _, r := range cs.Rows {
		found[uint32(r.ASN)] = true
	}
	for _, want := range []uint32{1221, 4826} {
		if !found[want] {
			t.Errorf("AU case study missing AS%d", want)
		}
	}
	if !strings.Contains(cs.Render(), "Telstra") {
		t.Error("render missing Telstra")
	}

	t9 := RunTable9(p, "AU")
	if len(t9.ConeRows) != 10 || len(t9.HegRows) != 10 {
		t.Fatalf("table 9 sizes: %d/%d", len(t9.ConeRows), len(t9.HegRows))
	}
	// Global ranks must be populated for the multinationals.
	multinationalSeen := false
	for _, r := range t9.ConeRows {
		if r.Info.Country != "AU" && r.CCGRank > 0 && r.CCGRank <= 10 {
			multinationalSeen = true
		}
	}
	if !multinationalSeen {
		t.Error("no multinational with top-10 CCG in AU's CCI list")
	}
	if !strings.Contains(t9.Render(), "AHC") {
		t.Error("render missing AHC column")
	}
}

func TestTemporalRussiaAndTaiwan(t *testing.T) {
	a, b := pipelines(t)
	ru := RunTemporal(a, b, "RU")
	if len(ru.ConeDelta) != 10 || len(ru.HegDelta) != 10 {
		t.Fatalf("delta sizes: %d/%d", len(ru.ConeDelta), len(ru.HegDelta))
	}
	if ru.ForeignShareTop10() < 3 {
		t.Errorf("Russia should stay foreign-dependent: %d foreign in top 10", ru.ForeignShareTop10())
	}
	if !strings.Contains(ru.Render(), "Rostelecom") {
		t.Error("render missing Rostelecom")
	}

	tw := RunTemporal(a, b, "TW")
	oldCT, _ := tw.ConeOldFul.RankOf(4134)
	if oldCT == 0 || oldCT > 15 {
		t.Errorf("2021 China Telecom CCI rank = %d", oldCT)
	}
	newTop := map[uint32]bool{}
	for _, d := range tw.ConeDelta {
		newTop[uint32(d.ASN)] = true
	}
	if newTop[4134] {
		t.Error("China Telecom should have left Taiwan's CCI top 10 by 2023")
	}
}

func TestTable12AndFigure7(t *testing.T) {
	p, _ := pipelines(t)
	t12 := RunTable12(p)
	if len(t12.Rows) < 5 {
		t.Fatalf("table 12 too small: %d rows", len(t12.Rows))
	}
	if t12.Rows[0].Registered != "US" {
		t.Errorf("top serving country = %v, want US (§6.3)", t12.Rows[0].Registered)
	}
	if t12.USShare < 0.5 {
		t.Errorf("US share = %.2f, want the dominant majority", t12.USShare)
	}
	if !strings.Contains(t12.Render(), "U.S.") {
		t.Error("render missing US share line")
	}

	f7 := RunFigure7(p)
	if f7.MaxRussianAHI["TM"] < 0.2 {
		t.Errorf("Turkmenistan Russian AHI = %f, want > 0.2", f7.MaxRussianAHI["TM"])
	}
	if f7.MaxRussianAHI["UA"] > 0.2 {
		t.Errorf("Ukraine Russian AHI = %f, want low (Figure 7)", f7.MaxRussianAHI["UA"])
	}
	if !strings.Contains(f7.Render(), "TM") {
		t.Error("figure 7 render missing TM")
	}
}

func TestGeolocFigures(t *testing.T) {
	p, _ := pipelines(t)
	f8 := RunFigure8(p)
	if len(f8.Thresholds) != len(f8.CountriesAt99) {
		t.Fatal("figure 8 series mismatch")
	}
	for i := 1; i < len(f8.CountriesAt99); i++ {
		if f8.CountriesAt99[i] > f8.CountriesAt99[i-1] {
			t.Errorf("pass counts should not rise with threshold: %v", f8.CountriesAt99)
		}
	}
	if !strings.Contains(f8.Render(), "threshold") {
		t.Error("figure 8 render")
	}

	f9 := RunFigure9(p)
	covered, nc := 0, 0
	for _, n := range f9.CoveredByLen {
		covered += n
	}
	for _, n := range f9.NoConsensusByLen {
		nc += n
	}
	if covered == 0 || nc == 0 {
		t.Fatalf("figure 9 empty: covered=%d noconsensus=%d", covered, nc)
	}
	if covered <= nc {
		t.Errorf("covered-by-more-specifics (%d) should dominate (%d), as in the paper's 85%%", covered, nc)
	}

	t1314 := RunTable13_14(p)
	for _, tough := range []countries.Code{"IM", "GG", "MQ", "NA"} {
		if t1314.PctPrefixes[tough] <= t1314.PctPrefixes["US"] {
			t.Errorf("%s should filter more prefixes than US: %.2f vs %.2f",
				tough, t1314.PctPrefixes[tough], t1314.PctPrefixes["US"])
		}
	}
	if !strings.Contains(t1314.Render(), "most filtered") {
		t.Error("table 13/14 render")
	}
}

func TestFigure10(t *testing.T) {
	p, _ := pipelines(t)
	f := RunFigure10(p)
	if len(f.Dist) == 0 {
		t.Fatal("empty figure 10")
	}
	singles, total := 0, 0
	for _, d := range f.Dist {
		for k, n := range d {
			total += n
			if k == 1 {
				singles += n
			}
		}
	}
	if float64(singles)/float64(total) < 0.6 {
		t.Errorf("single-VP share = %d/%d, want the large majority (Figure 10)", singles, total)
	}
}

func TestStabilityFigures(t *testing.T) {
	p, _ := pipelines(t)
	f4 := RunFigure4(p, 2, 7)
	if len(f4.AHN) == 0 || len(f4.CCN) == 0 {
		t.Fatal("figure 4 empty")
	}
	for _, c := range f4.AHN {
		if len(c.Points) == 0 {
			t.Fatalf("no points for %s", c.Country)
		}
		last := c.Points[len(c.Points)-1]
		if last.MeanNDCG < 0.95 {
			t.Errorf("%s full-sample NDCG = %f", c.Country, last.MeanNDCG)
		}
	}
	if f4.AHN[0].MinVPsFor(0.8) == 0 {
		t.Error("0.8 never reached")
	}
	if !strings.Contains(f4.Render(), "NDCG") {
		t.Error("figure 4 render")
	}

	f5 := RunFigure5(p, 2, 9)
	if len(f5.AHI) != 5 || len(f5.CCI) != 5 {
		t.Fatalf("figure 5 sizes: %d/%d", len(f5.AHI), len(f5.CCI))
	}
	if !strings.Contains(f5.Render(), "out-of-country") {
		t.Error("figure 5 render")
	}
}

// TestRendersOrderTies: Figure 7's tied rows (several countries at 0.0 %)
// and the inference confusion lines are read out of maps; their order is the
// country code's and the relationship's, not the map's, so two runs print the
// same bytes.
func TestRendersOrderTies(t *testing.T) {
	f7 := Figure7{MaxRussianAHI: map[countries.Code]float64{
		"UA": 0, "TM": 0.5, "EE": 0, "KZ": 0.5, "LV": 0, "GE": 0, "BY": 0.3, "LT": 0, "MD": 0,
	}}
	want := f7.Render()
	var order []string
	for _, line := range strings.Split(want, "\n")[1:] {
		if len(line) >= 2 {
			order = append(order, line[:2])
		}
	}
	if got := strings.Join(order, " "); got != "KZ TM BY EE GE LT LV MD UA" {
		t.Errorf("Figure 7 rows in order %s, want value descending, then country code", got)
	}
	v := InferenceValidation{Val: relation.Validation{Confusion: map[topology.Rel]map[topology.Rel]int{
		topology.RelP2P: {topology.RelP2C: 3, topology.RelC2P: 2},
		topology.RelP2C: {topology.RelP2P: 7, topology.RelC2P: 1},
		topology.RelC2P: {topology.RelP2P: 5},
	}}}
	wantV := v.Render()
	if strings.Count(wantV, "mislabeled") != 5 {
		t.Fatalf("confusion lines missing:\n%s", wantV)
	}
	for i := 0; i < 50; i++ {
		if got := f7.Render(); got != want {
			t.Fatalf("Figure 7 rendered differently on run %d:\n%s\nvs\n%s", i, got, want)
		}
		if got := v.Render(); got != wantV {
			t.Fatalf("inference validation rendered differently on run %d:\n%s\nvs\n%s", i, got, wantV)
		}
	}
}
