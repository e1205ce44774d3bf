package core

import (
	"reflect"
	"sync"
	"testing"

	"countryrank/internal/countries"
	"countryrank/internal/cti"
	"countryrank/internal/rank"
	"countryrank/internal/topology"
)

// smallOpts keeps pipeline tests quick.
func smallOpts() Options {
	return Options{Seed: 3, StubScale: 0.15, VPScale: 0.2}
}

// midOpts is big enough for ranking shapes to emerge.
func midOpts() Options {
	return Options{Seed: 1, StubScale: 0.5, VPScale: 0.5}
}

func TestPipelineDeterministic(t *testing.T) {
	a := NewPipeline(smallOpts())
	b := NewPipeline(smallOpts())
	if a.DS.Stats != b.DS.Stats {
		t.Fatalf("stats differ: %+v vs %+v", a.DS.Stats, b.DS.Stats)
	}
	ra := a.Country("AU").CCI
	rb := b.Country("AU").CCI
	if ra.Len() != rb.Len() {
		t.Fatal("ranking sizes differ")
	}
	for i := range ra.Entries {
		if ra.Entries[i] != rb.Entries[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestViewPartition(t *testing.T) {
	p := NewPipeline(smallOpts())
	for _, c := range p.DS.CountriesWithPrefixes() {
		nat := p.ViewRecords(National, c)
		intl := p.ViewRecords(International, c)
		if len(nat)+len(intl) != len(p.byPrefixCountry[c]) {
			t.Fatalf("%s: views do not partition: %d + %d != %d",
				c, len(nat), len(intl), len(p.byPrefixCountry[c]))
		}
		// Spot-check membership invariants.
		for _, i := range nat {
			vpIdx, pfxIdx, _ := p.DS.Record(int(i))
			if p.DS.VPCountry[vpIdx] != c || p.DS.PrefixCountry[pfxIdx] != c {
				t.Fatalf("%s national view violation", c)
			}
		}
		for _, i := range intl {
			vpIdx, pfxIdx, _ := p.DS.Record(int(i))
			if p.DS.VPCountry[vpIdx] == c || p.DS.PrefixCountry[pfxIdx] != c {
				t.Fatalf("%s international view violation", c)
			}
		}
	}
	if p.ViewRecords(Global, "") != nil {
		t.Error("global view should be nil (= all records)")
	}
}

func TestCaseStudyShapes(t *testing.T) {
	p := NewPipeline(midOpts())

	au := p.Country("AU")
	if top := au.AHN.TopASNs(1); len(top) == 0 || top[0] != 1221 {
		t.Errorf("AU AHN top = %v, want Telstra 1221", top)
	}
	if rk, _ := au.CCN.RankOf(4826); rk == 0 || rk > 3 {
		t.Errorf("AU CCN rank of Vocus = %d, want near the top", rk)
	}
	if rk, _ := au.CCI.RankOf(1299); rk == 0 || rk > 3 {
		t.Errorf("AU CCI rank of Arelion = %d, want near the top", rk)
	}
	// Telstra's international AS matters internationally but not nationally.
	intlRank, _ := au.AHI.RankOf(4637)
	natVal := au.AHN.ValueOf(4637)
	if intlRank == 0 || intlRank > 10 {
		t.Errorf("AU AHI rank of Telstra Global = %d", intlRank)
	}
	if natVal > 0.05 {
		t.Errorf("AU AHN value of Telstra Global = %f, want ≈0 (§5.1)", natVal)
	}

	jp := p.Country("JP")
	if top := jp.CCI.TopASNs(1); top[0] != 2914 {
		t.Errorf("JP CCI top = %v, want NTT America", top)
	}
	if rk, _ := jp.AHN.RankOf(2516); rk == 0 || rk > 3 {
		t.Errorf("JP AHN rank of KDDI = %d", rk)
	}

	ru := p.Country("RU")
	if rk, _ := ru.AHN.RankOf(12389); rk != 1 {
		t.Errorf("RU AHN rank of Rostelecom = %d, want 1", rk)
	}
	// Foreign multinationals dominate Russia's international cone (§5.3).
	foreign := 0
	for _, e := range ru.CCI.Top(3) {
		if e.Info.Country != "RU" {
			foreign++
		}
	}
	if foreign < 2 {
		t.Errorf("RU CCI top-3 should be mostly foreign, got %d foreign", foreign)
	}

	us := p.Country("US")
	if top := us.CCI.TopASNs(1); top[0] != 3356 {
		t.Errorf("US CCI top = %v, want Lumen", top)
	}
}

func TestGlobalRankings(t *testing.T) {
	p := NewPipeline(midOpts())
	ccg, ahg := p.Global()
	if ccg.Len() == 0 || ahg.Len() == 0 {
		t.Fatal("empty global rankings")
	}
	// The global cone leaders must be clique members.
	cliqueSet := map[uint32]bool{}
	for _, a := range p.World.Clique {
		cliqueSet[uint32(a)] = true
	}
	for _, e := range ccg.Top(3) {
		if !cliqueSet[uint32(e.ASN)] {
			t.Errorf("CCG top-3 contains non-clique %v", e.ASN)
		}
	}
	// An AS's global cone bounds its hegemony ordering loosely; just check
	// values are sane fractions.
	for _, e := range ahg.Top(20) {
		if e.Value < 0 || e.Value > 1 {
			t.Errorf("AHG value out of range: %+v", e)
		}
	}
}

func TestAHCAndCTI(t *testing.T) {
	p := NewPipeline(midOpts())
	ahc := p.AHC("AU")
	if ahc.Len() == 0 {
		t.Fatal("empty AHC")
	}
	if rk, ok := ahc.RankOf(1221); !ok || rk > 10 {
		t.Errorf("AHC rank of Telstra = %d, %v", rk, ok)
	}
	// Amazon originates AU prefixes but is US-registered: AHN sees it,
	// AHC's origin filter must exclude its origin contribution (§5.1.2).
	au := p.Country("AU")
	if au.AHN.ValueOf(16509) <= ahc.ValueOf(16509) {
		t.Errorf("AHN(Amazon)=%f should exceed AHC(Amazon)=%f",
			au.AHN.ValueOf(16509), ahc.ValueOf(16509))
	}

	cti := p.CTI("AU")
	if cti.Len() == 0 {
		t.Fatal("empty CTI")
	}
	// §1.3: origins score 0 in CTI, so a pure-origin AS ranked by AHN must
	// not out-rank transit ASes here; check Vocus (transit) is present.
	if _, ok := cti.RankOf(4826); !ok {
		t.Error("CTI should rank Vocus")
	}
}

// TestCTILazyDepthsConcurrent: the transit depths are resolved on the first
// CTI call, and experiment worker pools make that call from several
// goroutines at once; every caller must see the ranking the kernel gives
// when it resolves the depths itself.
func TestCTILazyDepthsConcurrent(t *testing.T) {
	p := NewPipeline(smallOpts())
	if p.ctiDepths != nil {
		t.Fatal("CTI depths resolved before any CTI call")
	}
	ccs := []countries.Code{"AU", "JP", "RU", "US"}
	got := make([]*rank.Ranking, len(ccs))
	var wg sync.WaitGroup
	for i, c := range ccs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.CTI(c)
		}()
	}
	wg.Wait()
	for i, c := range ccs {
		want := rank.New("", cti.Compute(p.DS, p.ViewRecords(International, c), p.Rels, p.Opt.Trim).CTI, nil, true)
		if got[i].Len() == 0 || !reflect.DeepEqual(got[i].Values(), want.Values()) {
			t.Errorf("CTI %s differs from the kernel run without precomputed depths", c)
		}
	}
}

func TestStabilityImprovesWithVPs(t *testing.T) {
	p := NewPipeline(midOpts())
	pts := p.Stability(CCI, "AU", []int{2, 25, 150}, 4, 42)
	if len(pts) != 3 {
		t.Fatalf("points = %+v", pts)
	}
	for _, pt := range pts {
		if pt.MeanNDCG <= 0 || pt.MeanNDCG > 1.000001 {
			t.Errorf("NDCG out of range: %+v", pt)
		}
	}
	if pts[2].MeanNDCG < pts[0].MeanNDCG {
		t.Errorf("NDCG should improve with VPs: %+v", pts)
	}
	if pts[2].MeanNDCG < 0.9 {
		t.Errorf("large-sample NDCG = %f, want ≥ 0.9 (Figure 5 shape)", pts[2].MeanNDCG)
	}
}

func TestInferredRelationshipsPipeline(t *testing.T) {
	opt := smallOpts()
	opt.InferRelationships = true
	p := NewPipeline(opt)
	if p.Inferred == nil {
		t.Fatal("inferred relationships not active")
	}
	if p.Rels.Rel(3356, 1299) == 0 && p.Inferred.Len() > 0 {
		// Clique members should at least be labeled peers by inference.
		t.Error("inferred oracle seems inactive")
	}
	au := p.Country("AU")
	if au.CCI.Len() == 0 {
		t.Error("CCI empty under inferred relationships")
	}
}

func TestViewVPCount(t *testing.T) {
	p := NewPipeline(smallOpts())
	n := p.ViewVPCount(National, "NL")
	i := p.ViewVPCount(International, "NL")
	if n == 0 || i == 0 {
		t.Errorf("NL VP counts: national=%d international=%d", n, i)
	}
	if i <= n {
		t.Errorf("international view should have more VPs: %d vs %d", i, n)
	}
}

func TestScenarioDifference(t *testing.T) {
	o21 := smallOpts()
	o23 := smallOpts()
	o23.Scenario = topology.Mar2023
	p21 := NewPipeline(o21)
	p23 := NewPipeline(o23)
	tw21 := p21.Country("TW")
	tw23 := p23.Country("TW")
	r21, ok21 := tw21.CCI.RankOf(4134)
	r23, ok23 := tw23.CCI.RankOf(4134)
	if !ok21 || r21 > 15 {
		t.Errorf("2021: China Telecom CCI rank = %d, %v; want within the head", r21, ok21)
	}
	if ok23 && r23 <= r21 {
		t.Errorf("2023: China Telecom should fall in TW CCI: %d → %d", r21, r23)
	}
}

func TestStabilityAblationMeasures(t *testing.T) {
	p := NewPipeline(smallOpts())
	pts := p.Stability(CCI, "AU", []int{3, 40}, 3, 9)
	if len(pts) != 2 {
		t.Fatalf("points = %+v", pts)
	}
	for _, pt := range pts {
		if pt.MeanJaccard < 0 || pt.MeanJaccard > 1 {
			t.Errorf("Jaccard out of range: %+v", pt)
		}
		if pt.MeanTau < -1 || pt.MeanTau > 1 {
			t.Errorf("tau out of range: %+v", pt)
		}
	}
	// Large samples agree on membership and order.
	if pts[1].MeanJaccard < 0.8 || pts[1].MeanTau < 0.7 {
		t.Errorf("large-sample ablation measures too low: %+v", pts[1])
	}
}
