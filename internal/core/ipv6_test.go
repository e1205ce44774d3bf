package core

import (
	"testing"

	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

func TestDualStackPipeline(t *testing.T) {
	opt := smallOpts()
	w := topology.Build(topology.Config{Seed: opt.Seed, StubScale: opt.StubScale, VPScale: opt.VPScale, IPv6: true})
	p := NewPipelineFrom(w, routing.BuildCollection(w, routing.BuildOptions{}), opt)

	// Dual stack: both families survive sanitization.
	v4, v6 := 0, 0
	for i := 0; i < p.DS.Len(); i++ {
		if p.DS.PrefixOf(i).Addr().Is4() {
			v4++
		} else {
			v6++
		}
	}
	if v4 == 0 || v6 == 0 {
		t.Fatalf("dual-stack records: v4=%d v6=%d", v4, v6)
	}

	// IPv6 prefixes geolocate and enter the country views.
	recs := p.ViewRecords(International, "AU")
	v6InView := 0
	for _, i := range recs {
		if !p.DS.PrefixOf(int(i)).Addr().Is4() {
			v6InView++
		}
	}
	if v6InView == 0 {
		t.Error("AU international view has no IPv6 records")
	}

	// Rankings still resolve and stay within bounds.
	au := p.Country("AU")
	if au.CCI.Len() == 0 || au.AHN.Len() == 0 {
		t.Fatal("empty dual-stack rankings")
	}
	for _, e := range au.AHI.Top(10) {
		if e.Value < 0 || e.Value > 1 {
			t.Errorf("AHI value out of range: %+v", e)
		}
	}
}

func TestIPv6OffByDefault(t *testing.T) {
	p := NewPipeline(smallOpts())
	for i := 0; i < p.DS.Len(); i++ {
		if !p.DS.PrefixOf(i).Addr().Is4() {
			t.Fatal("IPv4-only world contains IPv6 prefixes")
		}
	}
}
