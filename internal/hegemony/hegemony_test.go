package hegemony

import (
	"math"
	"testing"

	"countryrank/internal/countries"
	"countryrank/internal/metrictest"
)

// TestFigure2WorkedExample pins the caption of the paper's Figure 2: AS A
// receives per-VP scores 1, 0.67 and 0.33; after removing the top and
// bottom values only 0.67 remains.
func TestFigure2WorkedExample(t *testing.T) {
	// Three VPs, three equal-size prefixes. AS 100 ("A") appears on all of
	// VP0's paths, 2/3 of VP1's and 1/3 of VP2's.
	ds := metrictest.Dataset([]countries.Code{"US", "US", "US"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.1.0/24", PrefixCountry: "US", Path: []uint32{1, 100, 201}},
		{VP: 0, Prefix: "10.0.2.0/24", PrefixCountry: "US", Path: []uint32{1, 100, 202}},
		{VP: 0, Prefix: "10.0.3.0/24", PrefixCountry: "US", Path: []uint32{1, 100, 203}},

		{VP: 1, Prefix: "10.0.1.0/24", PrefixCountry: "US", Path: []uint32{2, 100, 201}},
		{VP: 1, Prefix: "10.0.2.0/24", PrefixCountry: "US", Path: []uint32{2, 100, 202}},
		{VP: 1, Prefix: "10.0.3.0/24", PrefixCountry: "US", Path: []uint32{2, 9, 203}},

		{VP: 2, Prefix: "10.0.1.0/24", PrefixCountry: "US", Path: []uint32{3, 100, 201}},
		{VP: 2, Prefix: "10.0.2.0/24", PrefixCountry: "US", Path: []uint32{3, 9, 202}},
		{VP: 2, Prefix: "10.0.3.0/24", PrefixCountry: "US", Path: []uint32{3, 9, 203}},
	})
	s := Compute(ds, nil, -1)
	if s.VPCount != 3 {
		t.Fatalf("VPCount = %d", s.VPCount)
	}
	if got := s.Hegemony[100]; math.Abs(got-2.0/3.0) > 1e-9 {
		t.Errorf("hegemony(A) = %f, want 0.67 (the surviving middle score)", got)
	}
}

func TestAddressWeighting(t *testing.T) {
	// One VP, two prefixes: a /23 (512 addresses) through AS 5 and a /24
	// (256) not through it. Hegemony(5) = 512/768.
	ds := metrictest.Dataset([]countries.Code{"US"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.0.0/23", PrefixCountry: "US", Path: []uint32{1, 5, 7}},
		{VP: 0, Prefix: "10.1.0.0/24", PrefixCountry: "US", Path: []uint32{1, 8}},
	})
	s := Compute(ds, nil, 0) // no trimming: single VP
	if got := s.Hegemony[5]; math.Abs(got-512.0/768.0) > 1e-9 {
		t.Errorf("hegemony(5) = %f", got)
	}
	if got := s.Hegemony[1]; got != 1 {
		t.Errorf("hegemony(VP AS) = %f, want 1 from its own VP", got)
	}
}

func TestZeroPaddingForUnseenVPs(t *testing.T) {
	// AS 50 is seen only by VP 0 of 2; with no trim its score must average
	// in VP 1's implicit zero.
	ds := metrictest.Dataset([]countries.Code{"US", "US"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 50, 9}},
		{VP: 1, Prefix: "10.0.0.0/24", PrefixCountry: "US", Path: []uint32{2, 9}},
	})
	s := Compute(ds, nil, 0)
	if got := s.Hegemony[50]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("hegemony(50) = %f, want 0.5 (zero-padded)", got)
	}
}

func TestTrimDampsSingleVPBias(t *testing.T) {
	// Ten VPs; AS 60 is on one VP's only path and invisible elsewhere.
	// With 10% trim the single outlier view is dropped entirely.
	var recs []metrictest.Rec
	vpc := make([]countries.Code, 10)
	for v := 0; v < 10; v++ {
		vpc[v] = "US"
		path := []uint32{uint32(v + 1), 9}
		if v == 0 {
			path = []uint32{1, 60, 9}
		}
		recs = append(recs, metrictest.Rec{VP: v, Prefix: "10.0.0.0/24", PrefixCountry: "US", Path: path})
	}
	ds := metrictest.Dataset(vpc, recs)
	s := Compute(ds, nil, -1)
	if got := s.Hegemony[60]; got != 0 {
		t.Errorf("hegemony(60) = %f, want 0 after trimming the single enthusiast VP", got)
	}
	// The origin is on every path: hegemony 1 regardless of trimming.
	if got := s.Hegemony[9]; got != 1 {
		t.Errorf("hegemony(origin) = %f", got)
	}
}

func TestPrependingCountedOnce(t *testing.T) {
	ds := metrictest.Dataset([]countries.Code{"US"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 7, 7, 7}},
	})
	s := Compute(ds, nil, 0)
	if got := s.Hegemony[7]; got != 1 {
		t.Errorf("hegemony(7) = %f, prepending must not inflate beyond 1", got)
	}
}

func TestValuesBounded(t *testing.T) {
	ds := metrictest.Dataset([]countries.Code{"US", "NL", "JP"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 5, 9}},
		{VP: 1, Prefix: "10.0.0.0/24", PrefixCountry: "US", Path: []uint32{2, 5, 9}},
		{VP: 2, Prefix: "10.1.0.0/24", PrefixCountry: "US", Path: []uint32{3, 9}},
	})
	s := Compute(ds, nil, -1)
	for a, v := range s.Hegemony {
		if v < 0 || v > 1 {
			t.Errorf("hegemony(%v) = %f out of [0,1]", a, v)
		}
	}
}

func TestTrimmedMeanEdgeCases(t *testing.T) {
	if trimmedMean(nil, 0, 0.1) != 0 {
		t.Error("no VPs should give 0")
	}
	// n=1: trimming would remove everything; fall back to plain mean.
	if got := trimmedMean([]float64{0.8}, 1, 0.1); got != 0.8 {
		t.Errorf("n=1 mean = %f", got)
	}
	// n=2 with the small-view convention: k=1 would leave nothing → mean.
	if got := trimmedMean([]float64{0.2, 0.4}, 2, 0.1); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("n=2 mean = %f", got)
	}
}
