package topology

import (
	"net/netip"
	"sort"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/countries"
	"countryrank/internal/netx"
)

// CountryOfPrefixTruth returns the ground-truth country of an originated
// prefix per the geolocation database's plurality.
func (w *World) CountryOfPrefixTruth(p netip.Prefix) countries.Code {
	acc := map[countries.Code]uint64{}
	w.Geo.WeightByCountry(p, acc)
	var best countries.Code
	var bw uint64
	keys := make([]countries.Code, 0, len(acc))
	for c := range acc {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, c := range keys {
		if c != "" && acc[c] > bw {
			bw, best = acc[c], c
		}
	}
	return best
}

// smallCfg keeps world-generation tests fast.
func smallCfg(scenario Scenario) Config {
	return Config{Seed: 3, Scenario: scenario, StubScale: 0.15, VPScale: 0.15}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(smallCfg(Apr2021))
	b := Build(smallCfg(Apr2021))
	if a.Graph.NumASes() != b.Graph.NumASes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatalf("graph sizes differ: %d/%d vs %d/%d",
			a.Graph.NumASes(), a.Graph.NumEdges(), b.Graph.NumASes(), b.Graph.NumEdges())
	}
	if a.VPs.Len() != b.VPs.Len() {
		t.Fatalf("VP counts differ")
	}
	for i := 0; i < a.VPs.Len(); i++ {
		if a.VPs.VP(i) != b.VPs.VP(i) {
			t.Fatalf("VP %d differs", i)
		}
	}
	ap, bp := a.Graph.AllPrefixes(), b.Graph.AllPrefixes()
	if len(ap) != len(bp) {
		t.Fatalf("prefix counts differ")
	}
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatalf("prefix %d differs: %v vs %v", i, ap[i], bp[i])
		}
	}
}

func TestBuildSeedsDiffer(t *testing.T) {
	a := Build(Config{Seed: 3, StubScale: 0.15, VPScale: 0.15})
	b := Build(Config{Seed: 4, StubScale: 0.15, VPScale: 0.15})
	// Structure (profiles) is fixed; the stochastic parts (stub homing)
	// should differ somewhere.
	same := true
	for _, n := range a.Graph.ASes().All() {
		pa := a.Graph.Providers(n.ASN)
		pb := b.Graph.Providers(n.ASN)
		if len(pa) != len(pb) {
			same = false
			break
		}
		for i := range pa {
			if pa[i] != pb[i] {
				same = false
			}
		}
		if !same {
			break
		}
	}
	if same {
		t.Error("different seeds produced identical stub homing")
	}
}

func TestAnchorsPresent(t *testing.T) {
	w := Build(smallCfg(Apr2021))
	for _, a := range []uint32{3356, 1299, 174, 2914, 1221, 4637, 4826, 4713, 2516, 12389, 3462, 4134, 6939, 16509} {
		as, ok := w.Graph.ByASN(asn.ASN(a))
		if !ok {
			t.Errorf("anchor AS%d missing", a)
			continue
		}
		if as.Name == "" {
			t.Errorf("anchor AS%d unnamed", a)
		}
	}
	// Registration-vs-geolocation split: Amazon is US-registered.
	amzn, _ := w.Graph.ByASN(16509)
	if amzn.Registered != "US" {
		t.Errorf("Amazon registered = %v", amzn.Registered)
	}
}

func TestCliqueTransitFree(t *testing.T) {
	w := Build(smallCfg(Apr2021))
	for _, c := range w.Clique {
		if got := w.Graph.Providers(c); len(got) != 0 {
			t.Errorf("clique member %v has providers %v", c, got)
		}
	}
	// Full mesh.
	for i, a := range w.Clique {
		for _, b := range w.Clique[i+1:] {
			if w.Graph.Rel(a, b) != RelP2P {
				t.Errorf("clique %v-%v not peering", a, b)
			}
		}
	}
}

func TestPrefixesDisjointExceptCoveredPairs(t *testing.T) {
	w := Build(smallCfg(Apr2021))
	var trie netx.Trie[int]
	overlaps := 0
	for _, po := range w.Graph.AllPrefixes() {
		if _, dup := trie.Get(po.Prefix); dup {
			t.Errorf("duplicate origination of %v", po.Prefix)
		}
		trie.Insert(po.Prefix, 1)
	}
	// covered reports whether stored prefixes cover all of p: p itself, or
	// both its halves.
	var covered func(p netip.Prefix) bool
	covered = func(p netip.Prefix) bool {
		if _, ok := trie.Get(p); ok {
			return true
		}
		if len(trie.Descendants(p)) == 0 {
			return false
		}
		lo, hi := netx.Halves(p)
		return covered(lo) && covered(hi)
	}
	total := 0
	for _, po := range w.Graph.AllPrefixes() {
		total++
		if len(trie.Descendants(po.Prefix)) > 0 {
			overlaps++
			// Every nesting parent must be *fully* covered by more specifics
			// (the deliberate de-aggregation pattern), never partially
			// overlapped.
			lo, hi := netx.Halves(po.Prefix)
			if !covered(lo) || !covered(hi) {
				t.Errorf("parent %v only partially covered", po.Prefix)
			}
		}
	}
	// The deliberate covered parents exist but stay a small minority.
	if overlaps == 0 || overlaps > total/10 {
		t.Errorf("nesting parents = %d of %d, want a small positive count", overlaps, total)
	}
}

func TestAmazonOriginatesAbroad(t *testing.T) {
	w := Build(smallCfg(Apr2021))
	foundAU := false
	for _, p := range w.Graph.Origins(16509) {
		if w.CountryOfPrefixTruth(p) == "AU" {
			foundAU = true
		}
	}
	if !foundAU {
		t.Error("Amazon should originate AU-geolocated prefixes")
	}
}

func TestScenarioMutations(t *testing.T) {
	w21 := Build(smallCfg(Apr2021))
	w23 := Build(smallCfg(Mar2023))
	if w21.Graph.Rel(4134, 4780) != RelP2C {
		t.Error("2021: China Telecom should provide transit to Digital United")
	}
	if w23.Graph.Rel(4134, 4780) != RelNone {
		t.Error("2023: China Telecom transit into Taiwan should be gone")
	}
	if w23.Graph.Rel(3257, 8359) != RelNone {
		t.Error("2023: GTT should have left Russia")
	}
	if w23.Graph.Rel(174, 20485) != RelP2C {
		t.Error("2023: Cogent should provide transit to TransTelecom")
	}
}

func TestVPCensusOrder(t *testing.T) {
	w := Build(Config{Seed: 1}) // full scale for census shape
	census := w.VPs.Census()
	if len(census) < 10 {
		t.Fatalf("census too small: %d", len(census))
	}
	// NL leads; GB and US fill the next two slots (their VP counts are a
	// coin flip apart once multi-hop exclusion randomizes), then DE.
	if census[0].Country != "NL" {
		t.Errorf("census[0] = %v, want NL", census[0].Country)
	}
	next := map[string]bool{string(census[1].Country): true, string(census[2].Country): true}
	if !next["GB"] || !next["US"] {
		t.Errorf("census[1:3] = %v, want {GB, US}", census[1:3])
	}
	if census[3].Country != "DE" {
		t.Errorf("census[3] = %v, want DE", census[3].Country)
	}
}

func TestGeoDBCoversAllPrefixes(t *testing.T) {
	w := Build(smallCfg(Apr2021))
	for _, po := range w.Graph.AllPrefixes() {
		if _, ok := w.Geo.CountryOf(po.Prefix.Addr()); !ok {
			t.Errorf("prefix %v has no geolocation", po.Prefix)
		}
	}
}
