package vp

import (
	"net/netip"
	"testing"
)

func testSet(t *testing.T) *Set {
	t.Helper()
	colls := []Collector{
		{Name: "rc-us", ID: netip.MustParseAddr("198.51.100.1"), Country: "US"},
		{Name: "rc-nl", ID: netip.MustParseAddr("198.51.100.2"), Country: "NL"},
		{Name: "mh", ID: netip.MustParseAddr("198.51.100.3"), Country: "NL", MultiHop: true},
	}
	vps := []VP{
		{Index: 0, Addr: netip.MustParseAddr("10.0.0.1"), AS: 3356, Collector: "rc-us"},
		{Index: 1, Addr: netip.MustParseAddr("10.0.0.2"), AS: 7018, Collector: "rc-us"},
		{Index: 2, Addr: netip.MustParseAddr("10.0.0.3"), AS: 3356, Collector: "rc-us"},
		{Index: 3, Addr: netip.MustParseAddr("10.0.0.4"), AS: 1136, Collector: "rc-nl"},
		{Index: 4, Addr: netip.MustParseAddr("10.0.0.5"), AS: 12389, Collector: "mh", Feed: CustomerFeed},
	}
	s, err := NewSet(colls, vps)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	return s
}

func TestNewSetValidation(t *testing.T) {
	c := []Collector{{Name: "a", ID: netip.MustParseAddr("1.1.1.1"), Country: "US"}}
	if _, err := NewSet(append(c, c[0]), nil); err == nil {
		t.Error("duplicate collector should fail")
	}
	if _, err := NewSet(c, []VP{{Index: 0, Collector: "nope"}}); err == nil {
		t.Error("unknown collector reference should fail")
	}
	if _, err := NewSet(c, []VP{{Index: 5, Collector: "a"}}); err == nil {
		t.Error("sparse index should fail")
	}
}

func TestCountryAndLocated(t *testing.T) {
	s := testSet(t)
	if c, ok := s.Country(0); !ok || c != "US" {
		t.Errorf("Country(0) = %v,%v", c, ok)
	}
	if _, ok := s.Country(4); ok {
		t.Error("multi-hop VP must have no location")
	}
}

func TestCensus(t *testing.T) {
	s := testSet(t)
	census := s.Census()
	if len(census) != 2 {
		t.Fatalf("census = %+v", census)
	}
	if census[0].Country != "US" || census[0].VPs != 3 || census[0].VPASNs != 2 {
		t.Errorf("US census = %+v", census[0])
	}
	if census[1].Country != "NL" || census[1].VPs != 1 {
		t.Errorf("NL census = %+v", census[1])
	}
}

func TestASConcentration(t *testing.T) {
	s := testSet(t)
	conc := s.ASConcentration("US")
	// AS3356 hosts 2 VPs, AS7018 hosts 1: map[2]=2 VPs, map[1]=1 VP.
	if conc[2] != 2 || conc[1] != 1 {
		t.Errorf("concentration = %v", conc)
	}
}

func TestCollectors(t *testing.T) {
	s := testSet(t)
	cs := s.Collectors()
	if len(cs) != 3 || cs[0].Name > cs[1].Name || cs[1].Name > cs[2].Name {
		t.Errorf("Collectors = %+v", cs)
	}
	if c, ok := s.Collector("rc-nl"); !ok || c.Country != "NL" {
		t.Errorf("Collector(rc-nl) = %+v,%v", c, ok)
	}
	if _, ok := s.Collector("zzz"); ok {
		t.Error("unknown collector lookup must fail")
	}
	if s.Len() != 5 || s.VP(1).AS != 7018 || len(s.VPs()) != 5 {
		t.Error("accessors wrong")
	}
}
