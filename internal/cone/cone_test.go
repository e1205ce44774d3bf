package cone

import (
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/countries"
	"countryrank/internal/metrictest"
	"countryrank/internal/sanitize"
)

// fig1Rels encodes the paper's Figure 1: C(30)<D(40); D<E(50), D<F(60);
// A(10), B(20), C mutual peers; A<G(70); B<H(80).
var fig1Rels = metrictest.Rels{
	P2C: [][2]uint32{{30, 40}, {40, 50}, {40, 60}, {10, 70}, {20, 80}},
	P2P: [][2]uint32{{10, 20}, {10, 30}, {20, 30}},
}

func fig1Dataset() *sanitize.Dataset {
	return metrictest.Dataset(
		[]countries.Code{"US", "US"}, // VP 0 in G, VP 1 in H
		[]metrictest.Rec{
			// VP 0 (v_g at G): paths to E, F, H.
			{VP: 0, Prefix: "50.0.0.0/24", PrefixCountry: "US", Path: []uint32{70, 10, 30, 40, 50}},
			{VP: 0, Prefix: "60.0.0.0/24", PrefixCountry: "US", Path: []uint32{70, 10, 30, 40, 60}},
			{VP: 0, Prefix: "80.0.0.0/24", PrefixCountry: "US", Path: []uint32{70, 10, 20, 80}},
			// VP 1 (v_h at H): paths to E, F, G.
			{VP: 1, Prefix: "50.0.0.0/24", PrefixCountry: "US", Path: []uint32{80, 20, 30, 40, 50}},
			{VP: 1, Prefix: "60.0.0.0/24", PrefixCountry: "US", Path: []uint32{80, 20, 30, 40, 60}},
			{VP: 1, Prefix: "70.0.0.0/24", PrefixCountry: "US", Path: []uint32{80, 20, 10, 70}},
		})
}

func TestFigure1Cones(t *testing.T) {
	s := Compute(fig1Dataset(), nil, fig1Rels)

	// Four distinct /24s → 1024 addresses in scope.
	if s.Total != 4*256 {
		t.Fatalf("total = %d", s.Total)
	}
	// Both VPs share visibility of C<D<E and C<D<F (Figure 1's red
	// segments): C and D each hold E's and F's address space.
	if got := s.Addresses[30]; got != 512 {
		t.Errorf("cone(C) = %d, want 512", got)
	}
	if got := s.Addresses[40]; got != 512 {
		t.Errorf("cone(D) = %d, want 512", got)
	}
	// Each VP contributes one more segment: A<G from v_h (green), B<H from
	// v_g (blue).
	if got := s.Addresses[10]; got != 256 {
		t.Errorf("cone(A) = %d, want 256 (G only)", got)
	}
	if got := s.Addresses[20]; got != 256 {
		t.Errorf("cone(B) = %d, want 256 (H only)", got)
	}
	// Origins include themselves.
	for _, origin := range []uint32{50, 60, 70, 80} {
		if got := s.Addresses[asn.ASN(origin)]; got != 256 {
			t.Errorf("cone(%d) = %d, want own 256", origin, got)
		}
	}
	if sh := s.Share(30); sh != 0.5 {
		t.Errorf("Share(C) = %f", sh)
	}
	if len(s.Shares()) != len(s.Addresses) {
		t.Error("Shares size mismatch")
	}
	if (Scores{}).Share(1) != 0 {
		t.Error("empty scores share should be 0")
	}
}

func TestConeDoesNotCountUphillSegments(t *testing.T) {
	s := Compute(fig1Dataset(), nil, fig1Rels)
	// G and H appear first on paths (gray dropped segments): their cones
	// must stay at their own prefix only.
	if s.Addresses[70] != 256 || s.Addresses[80] != 256 {
		t.Errorf("VP-side ASes inflated: G=%d H=%d", s.Addresses[70], s.Addresses[80])
	}
}

func TestConeSubsetRecords(t *testing.T) {
	// Only VP 0's records (positions 0..2).
	s := Compute(fig1Dataset(), []int32{0, 1, 2}, fig1Rels)
	if s.Total != 3*256 {
		t.Fatalf("total = %d", s.Total)
	}
	if s.Addresses[20] != 256 { // B<H from v_g
		t.Errorf("cone(B) = %d", s.Addresses[20])
	}
	if s.Addresses[10] != 0 { // A<G only visible from v_h
		t.Errorf("cone(A) = %d, want 0 in v_g-only view", s.Addresses[10])
	}
}

func TestConeUnknownRelationsOnlyOrigin(t *testing.T) {
	s := Compute(fig1Dataset(), nil, metrictest.Rels{})
	// With no relationship knowledge, only origins keep their own prefix.
	for a, v := range s.Addresses {
		if v != 256 {
			t.Errorf("AS%d cone = %d without relationships", a, v)
		}
	}
}

func TestConeChainStopsOnBrokenLink(t *testing.T) {
	// Path 1 2 3 where 1<2 is p2c but 2-3 is unknown: 1 and 2 must not
	// absorb 3's prefix (robustness against imperfect inference).
	rels := metrictest.Rels{P2C: [][2]uint32{{1, 2}}}
	ds := metrictest.Dataset([]countries.Code{"US"}, []metrictest.Rec{
		{VP: 0, Prefix: "9.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 2, 3}},
	})
	s := Compute(ds, nil, rels)
	if s.Addresses[1] != 0 || s.Addresses[2] != 0 {
		t.Errorf("broken chain leaked: %v", s.Addresses)
	}
}

func TestMonotoneAlongChain(t *testing.T) {
	rels := metrictest.Rels{P2C: [][2]uint32{{1, 2}, {2, 3}}}
	ds := metrictest.Dataset([]countries.Code{"US"}, []metrictest.Rec{
		{VP: 0, Prefix: "9.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 2, 3}},
	})
	s := Compute(ds, nil, rels)
	if s.Addresses[1] < s.Addresses[2] || s.Addresses[2] < s.Addresses[3] {
		t.Errorf("cone not monotone along provider chain: %v", s.Addresses)
	}
}

func TestDistinctPrefixDedup(t *testing.T) {
	// The same prefix seen from two VPs counts once in the cone.
	rels := metrictest.Rels{P2C: [][2]uint32{{1, 2}}}
	ds := metrictest.Dataset([]countries.Code{"US", "US"}, []metrictest.Rec{
		{VP: 0, Prefix: "9.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 2}},
		{VP: 1, Prefix: "9.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 2}},
	})
	s := Compute(ds, nil, rels)
	if s.Addresses[1] != 256 || s.Total != 256 {
		t.Errorf("dedup failed: %v total %d", s.Addresses, s.Total)
	}
}
