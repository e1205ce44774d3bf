package cti

import (
	"math"
	"testing"

	"countryrank/internal/countries"
	"countryrank/internal/metrictest"
)

func TestReverseDistanceWeights(t *testing.T) {
	// Path 1 2 3 4 with 2>3>4 transit chain (1-2 is peer): origin 4 scores
	// 0, AS 3 scores w/1, AS 2 scores w/2, AS 1 nothing (not transit).
	rels := metrictest.Rels{
		P2C: [][2]uint32{{2, 3}, {3, 4}},
		P2P: [][2]uint32{{1, 2}},
	}
	ds := metrictest.Dataset([]countries.Code{"NL"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 2, 3, 4}},
	})
	s := Compute(ds, nil, rels, 0)
	if s.VPCount != 1 {
		t.Fatalf("VPCount = %d", s.VPCount)
	}
	if got := s.CTI[4]; got != 0 {
		t.Errorf("CTI(origin) = %f, want 0 (reverse order starts at 0)", got)
	}
	if got := s.CTI[3]; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("CTI(3) = %f, want 1/1", got)
	}
	if got := s.CTI[2]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CTI(2) = %f, want 1/2", got)
	}
	if got := s.CTI[1]; got != 0 {
		t.Errorf("CTI(1) = %f, want 0 (peer link is not transit)", got)
	}
}

func TestTransitOnlyStopsAtPeerLink(t *testing.T) {
	// Entire path is peer links: nobody scores.
	rels := metrictest.Rels{P2P: [][2]uint32{{1, 2}, {2, 3}}}
	ds := metrictest.Dataset([]countries.Code{"NL"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 2, 3}},
	})
	s := Compute(ds, nil, rels, 0)
	for a, v := range s.CTI {
		if v != 0 {
			t.Errorf("CTI(%v) = %f on peer-only path", a, v)
		}
	}
}

// TestAOLPPenalty pins §1.3's observation: for an origin announcing large
// prefixes, CTI under-scores the origin relative to cone/hegemony but
// boosts the AS directly adjacent to it.
func TestAOLPPenalty(t *testing.T) {
	rels := metrictest.Rels{P2C: [][2]uint32{{2, 4}}}
	ds := metrictest.Dataset([]countries.Code{"NL"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.0.0/16", PrefixCountry: "US", Path: []uint32{2, 4}},
	})
	s := Compute(ds, nil, rels, 0)
	if s.CTI[4] != 0 {
		t.Error("origin must score 0 even when announcing a /16")
	}
	if math.Abs(s.CTI[2]-1.0) > 1e-9 {
		t.Errorf("adjacent AS gets the full weight: %f", s.CTI[2])
	}
}

func TestNormalizationAcrossPrefixes(t *testing.T) {
	// VP sees two prefixes: /24 via transit AS 5 and /24 not via it:
	// CTI(5) = (256/1)/512 = 0.5.
	rels := metrictest.Rels{P2C: [][2]uint32{{5, 7}, {6, 8}}}
	ds := metrictest.Dataset([]countries.Code{"NL"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 5, 7}},
		{VP: 0, Prefix: "10.1.0.0/24", PrefixCountry: "US", Path: []uint32{1, 6, 8}},
	})
	s := Compute(ds, nil, rels, 0)
	if got := s.CTI[5]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CTI(5) = %f, want 0.5", got)
	}
}

func TestTrimmedAcrossVPs(t *testing.T) {
	// Three VPs with CTI(5) views 1, 0.5, 0: the small-view trim keeps the
	// middle value.
	rels := metrictest.Rels{P2C: [][2]uint32{{5, 7}, {6, 8}}}
	ds := metrictest.Dataset([]countries.Code{"NL", "DE", "SE"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 5, 7}},
		{VP: 1, Prefix: "10.0.0.0/24", PrefixCountry: "US", Path: []uint32{2, 5, 7}},
		{VP: 1, Prefix: "10.1.0.0/24", PrefixCountry: "US", Path: []uint32{2, 6, 8}},
		{VP: 2, Prefix: "10.1.0.0/24", PrefixCountry: "US", Path: []uint32{3, 6, 8}},
	})
	s := Compute(ds, nil, rels, -1)
	if got := s.CTI[5]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CTI(5) = %f, want the middle per-VP value 0.5", got)
	}
}
