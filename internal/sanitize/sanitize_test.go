package sanitize

import (
	"strings"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/geoloc"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

func smallWorld(t *testing.T) (*topology.World, *routing.Collection) {
	t.Helper()
	w := topology.Build(topology.Config{Seed: 9, StubScale: 0.1, VPScale: 0.15})
	col := routing.BuildCollection(w, routing.BuildOptions{})
	return w, col
}

func fullConfig(w *topology.World, col *routing.Collection, threshold float64) Config {
	clique := map[asn.ASN]bool{}
	for _, a := range w.Clique {
		clique[a] = true
	}
	return Config{
		Clique:       clique,
		Registry:     w.Graph.Registry(),
		RouteServers: w.Graph.RouteServers(),
		GeoTable:     geoloc.GeolocatePrefixes(w.Geo, col.AnnouncedPrefixes(), threshold),
	}
}

func TestRunAccounting(t *testing.T) {
	w, col := smallWorld(t)
	ds := Run(col, fullConfig(w, col, 0.5))
	s := ds.Stats
	if s.Total != len(col.Records) {
		t.Fatalf("total = %d, want %d", s.Total, len(col.Records))
	}
	sum := 0
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Total {
		t.Fatalf("reason counts sum to %d, want %d", sum, s.Total)
	}
	if s.Counts[Accepted] != ds.Len() || ds.Len() != len(ds.recPath) || ds.Len() != len(ds.recPrefix) {
		t.Fatal("accepted bookkeeping inconsistent")
	}
	// Table 1 shape checks: every reject class is exercised, acceptance in a
	// plausible band, unstable the biggest path-content reject after VP loc.
	for _, r := range []Reason{Unstable, Unallocated, Loop, VPNoLocation} {
		if s.Counts[r] == 0 {
			t.Errorf("reason %v never triggered", r)
		}
	}
	if pct := s.Pct(Accepted); pct < 50 || pct > 90 {
		t.Errorf("accepted = %.1f%%, want the Table 1 ballpark (≈70%%)", pct)
	}
	if s.Counts[Unstable] < s.Counts[Loop] {
		t.Error("unstable should dominate loops, as in Table 1")
	}
	if s.Rejected() != s.Total-s.Counts[Accepted] {
		t.Error("Rejected() inconsistent")
	}
	if s.Render() == "" {
		t.Error("Render empty")
	}
}

func TestAcceptedPathsAreClean(t *testing.T) {
	w, col := smallWorld(t)
	ds := Run(col, fullConfig(w, col, 0.5))
	rs := w.Graph.RouteServers()
	reg := w.Graph.Registry()
	for i := 0; i < ds.Len(); i++ {
		vpIdx, pfxIdx, p := ds.Record(i)
		if len(p) == 0 {
			t.Fatal("accepted record with empty path")
		}
		if p.HasNonAdjacentLoop() {
			t.Fatalf("accepted path has loop: %v", p)
		}
		for j, a := range p {
			if rs[a] {
				t.Fatalf("accepted path retains route server: %v", p)
			}
			if !reg.Allocated(a) {
				t.Fatalf("accepted path has unallocated ASN: %v", p)
			}
			if j > 0 && p[j-1] == a {
				t.Fatalf("accepted path has prepending: %v", p)
			}
		}
		if ds.VPCountry[vpIdx] == "" {
			t.Fatal("accepted record from unlocatable VP")
		}
		if ds.PrefixCountry[pfxIdx] == "" {
			t.Fatal("accepted record with unlocatable prefix")
		}
	}
}

func TestJudgePathDirect(t *testing.T) {
	reg := asn.NewRegistry([]asn.ASN{1, 2, 3, 3356, 1299, 9})
	clique := map[asn.ASN]bool{3356: true, 1299: true}
	rs := map[asn.ASN]bool{9: true}
	cfg := Config{Clique: clique, Registry: reg, RouteServers: rs}

	cases := []struct {
		name string
		path bgp.Path
		want Reason
	}{
		{"clean", bgp.Path{1, 2, 3}, Accepted},
		{"unallocated", bgp.Path{1, 64512, 3}, Unallocated},
		{"unknown-asn", bgp.Path{1, 77777, 3}, Unallocated},
		{"loop", bgp.Path{1, 2, 1, 3}, Loop},
		{"prepend-not-loop", bgp.Path{1, 2, 2, 3}, Accepted},
		{"poisoned", bgp.Path{3356, 2, 1299, 3}, Poisoned},
		{"adjacent-clique-ok", bgp.Path{3356, 1299, 3}, Accepted},
	}
	j := newJudge(cfg)
	for _, c := range cases {
		if got, _ := j.judge(c.path); got != c.want {
			t.Errorf("%s: reason = %v, want %v", c.name, got, c.want)
		}
	}
	// A route server between two equal hops is a loop before it is a hop to
	// drop: loops are judged on the path as announced.
	if got, _ := j.judge(bgp.Path{1, 9, 1, 2}); got != Loop {
		t.Errorf("RS loop path: %v", got)
	}
	if got, clean := j.judge(bgp.Path{1, 9, 2, 3}); got != Accepted || !clean.Equal(bgp.Path{1, 2, 3}) {
		t.Errorf("RS removal: %v %v", got, clean)
	}
}

func TestReasonString(t *testing.T) {
	for r := Accepted; r < numReasons; r++ {
		if r.String() == "" {
			t.Errorf("Reason(%d) empty", r)
		}
	}
	if Reason(200).String() == "" {
		t.Error("unknown reason should render")
	}
}

func TestCountriesWithPrefixes(t *testing.T) {
	w, col := smallWorld(t)
	ds := Run(col, fullConfig(w, col, 0.5))
	cs := ds.CountriesWithPrefixes()
	if len(cs) < 20 {
		t.Fatalf("only %d countries with prefixes", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Fatal("countries not sorted")
		}
	}
	found := map[string]bool{}
	for _, c := range cs {
		found[string(c)] = true
	}
	for _, c := range []string{"US", "AU", "JP", "RU", "TW"} {
		if !found[c] {
			t.Errorf("case-study country %s missing", c)
		}
	}
}

// TestRenderEmptyStats is a regression test: with Total == 0 the "rejected"
// row used to print 100.00% (100 - Pct(Accepted) with Pct returning 0) and
// the "total" row claimed 100.00% of zero records. Every percentage in an
// empty accounting must render as 0.00%.
func TestRenderEmptyStats(t *testing.T) {
	out := Stats{}.Render()
	if strings.Contains(out, "100.00%") {
		t.Fatalf("empty stats render a 100%% row:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasSuffix(line, "0    0.00%") {
			t.Errorf("empty-stats row not zeroed: %q", line)
		}
	}
}

// TestRenderPercentages pins the non-empty case the fix must not disturb.
func TestRenderPercentages(t *testing.T) {
	var s Stats
	s.Counts[Accepted] = 75
	s.Counts[Loop] = 25
	s.Total = 100
	out := s.Render()
	for _, want := range []string{
		"rejected", "25.00%", "75.00%", "100.00%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}
