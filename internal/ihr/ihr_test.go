package ihr

import (
	"math"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/countries"
	"countryrank/internal/metrictest"
	"countryrank/internal/topology"
)

func testGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	for _, a := range []struct {
		asn uint32
		reg countries.Code
	}{
		{100, "AU"}, {200, "AU"}, {300, "US"}, {5, "US"}, {1, "NL"}, {2, "NL"},
	} {
		g.MustAddAS(topology.AS{ASN: asn.ASN(a.asn), Registered: a.reg, Class: topology.ClassStub})
	}
	return g
}

func TestAHCMeansOverRegisteredOrigins(t *testing.T) {
	g := testGraph(t)
	// Two AU-registered origins (100, 200) and one US origin (300).
	// Transit AS 5 carries all of 100's paths and none of 200's.
	ds := metrictest.Dataset([]countries.Code{"NL", "NL"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.0.0/24", PrefixCountry: "AU", Path: []uint32{1, 5, 100}},
		{VP: 1, Prefix: "10.0.0.0/24", PrefixCountry: "AU", Path: []uint32{2, 5, 100}},
		{VP: 0, Prefix: "10.1.0.0/24", PrefixCountry: "AU", Path: []uint32{1, 200}},
		{VP: 1, Prefix: "10.1.0.0/24", PrefixCountry: "AU", Path: []uint32{2, 200}},
		{VP: 0, Prefix: "10.2.0.0/24", PrefixCountry: "US", Path: []uint32{1, 5, 300}},
	})
	s := Compute(ds, g, "AU", 0)
	if s.Origins != 2 {
		t.Fatalf("origins = %d", s.Origins)
	}
	// AH_100(5) = 1 (on every path to 100); AH_200(5) = 0 → AHC = 0.5.
	if got := s.AHC[5]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("AHC(5) = %f, want 0.5", got)
	}
	// Origin 100 itself: AH_100(100)=1, AH_200(100)=0 → 0.5.
	if got := s.AHC[100]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("AHC(100) = %f", got)
	}
	// The US origin contributes nothing to AU's AHC.
	if got := s.AHC[300]; got != 0 {
		t.Errorf("AHC(300) = %f", got)
	}
}

// TestAHCRegistrationBlindness pins §5.1.2's Amazon case: an AS registered
// elsewhere but originating prefixes in the country is *invisible* to AHC,
// unlike the paper's prefix-based AHN.
func TestAHCRegistrationBlindness(t *testing.T) {
	g := testGraph(t)
	// AS 300 (US-registered) originates a prefix geolocated to AU.
	ds := metrictest.Dataset([]countries.Code{"NL"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.9.0.0/24", PrefixCountry: "AU", Path: []uint32{1, 300}},
		{VP: 0, Prefix: "10.0.0.0/24", PrefixCountry: "AU", Path: []uint32{1, 100}},
	})
	s := Compute(ds, g, "AU", 0)
	if _, ok := s.AHC[300]; ok && s.AHC[300] > 0 {
		// 300 can appear via AU origins' paths, but here it is on none.
		t.Errorf("AHC should not credit the foreign-registered origin: %v", s.AHC[300])
	}
	if s.Origins != 1 {
		t.Errorf("origins = %d (only the AU-registered AS)", s.Origins)
	}
}

func TestAHCUserWeighting(t *testing.T) {
	// Origin 100 has 9× the users of origin 200; AS 5 transits only 100.
	g := topology.NewGraph()
	g.MustAddAS(topology.AS{ASN: 100, Registered: "AU", Class: topology.ClassStub, Users: 90000})
	g.MustAddAS(topology.AS{ASN: 200, Registered: "AU", Class: topology.ClassStub, Users: 10000})
	g.MustAddAS(topology.AS{ASN: 5, Registered: "US", Class: topology.ClassTransit, Users: 0})
	g.MustAddAS(topology.AS{ASN: 1, Registered: "NL", Class: topology.ClassStub, Users: 1})
	ds := metrictest.Dataset([]countries.Code{"NL"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.0.0/24", PrefixCountry: "AU", Path: []uint32{1, 5, 100}},
		{VP: 0, Prefix: "10.1.0.0/24", PrefixCountry: "AU", Path: []uint32{1, 200}},
	})
	equal := ComputeWeighted(ds, g, "AU", 0, ByASCount)
	users := ComputeWeighted(ds, g, "AU", 0, ByUsers)
	if math.Abs(equal.AHC[5]-0.5) > 1e-9 {
		t.Errorf("AS-count AHC(5) = %f, want 0.5", equal.AHC[5])
	}
	if math.Abs(users.AHC[5]-0.9) > 1e-9 {
		t.Errorf("user-weighted AHC(5) = %f, want 0.9", users.AHC[5])
	}
	if equal.Origins != 2 || users.Origins != 2 {
		t.Errorf("origins = %d/%d", equal.Origins, users.Origins)
	}
}

func TestAHCUnknownCountry(t *testing.T) {
	g := testGraph(t)
	ds := metrictest.Dataset([]countries.Code{"NL"}, []metrictest.Rec{
		{VP: 0, Prefix: "10.0.0.0/24", PrefixCountry: "AU", Path: []uint32{1, 100}},
	})
	s := Compute(ds, g, "ZZ", 0)
	if s.Origins != 0 || len(s.AHC) != 0 {
		t.Errorf("unknown country should be empty: %+v", s)
	}
}
