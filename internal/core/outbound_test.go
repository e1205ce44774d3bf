package core

import "testing"

func TestOutboundView(t *testing.T) {
	p := NewPipeline(midOpts())
	recs := p.ViewRecords(Outbound, "AU")
	if len(recs) == 0 {
		t.Fatal("empty outbound view")
	}
	for _, i := range recs {
		vpIdx, pfxIdx, _ := p.DS.Record(int(i))
		if p.DS.VPCountry[vpIdx] != "AU" {
			t.Fatal("outbound view must use in-country VPs")
		}
		if c := p.DS.PrefixCountry[pfxIdx]; c == "AU" || c == "" {
			t.Fatal("outbound view must target out-of-country prefixes")
		}
	}
	// National + outbound partition everything the country's VPs see.
	nat := p.ViewRecords(National, "AU")
	seenByAU := 0
	for i := 0; i < p.DS.Len(); i++ {
		vpIdx, _, _ := p.DS.Record(i)
		if p.DS.VPCountry[vpIdx] == "AU" {
			seenByAU++
		}
	}
	if len(recs)+len(nat) != seenByAU {
		t.Errorf("outbound(%d) + national(%d) != AU-VP records(%d)", len(recs), len(nat), seenByAU)
	}
}

func TestOutboundRankings(t *testing.T) {
	p := NewPipeline(midOpts())
	out := p.Outbound("AU")
	if out.CCO.Len() == 0 || out.AHO.Len() == 0 {
		t.Fatal("empty outbound rankings")
	}
	// Australia reaches the world through its international carriers and
	// their upstream multinationals: Telstra Global and a clique member
	// should rank inside the AHO top 10.
	if rk, ok := out.AHO.RankOf(4637); !ok || rk > 10 {
		t.Errorf("AHO rank of Telstra Global = %d, %v", rk, ok)
	}
	foundClique := false
	cliqueSet := map[uint32]bool{}
	for _, a := range p.Clique {
		cliqueSet[uint32(a)] = true
	}
	for _, e := range out.AHO.Top(10) {
		if cliqueSet[uint32(e.ASN)] {
			foundClique = true
		}
	}
	if !foundClique {
		t.Error("no clique member in AHO top 10")
	}
	// Outbound hegemony values are fractions.
	for _, e := range out.AHO.Top(20) {
		if e.Value < 0 || e.Value > 1 {
			t.Errorf("AHO value out of range: %+v", e)
		}
	}
	if out.AHO.ValueOf(1221) > 0.9 {
		// Telstra domestic carries its own stubs' outbound but not all of
		// the country's.
		t.Errorf("AHO(Telstra domestic) suspiciously high: %f", out.AHO.ValueOf(1221))
	}
}

func TestViewKindStrings(t *testing.T) {
	for _, v := range []ViewKind{National, International, Global, Outbound, ViewKind(99)} {
		if v.String() == "" {
			t.Errorf("ViewKind(%d) empty string", v)
		}
	}
}
