package topology

import (
	"net/netip"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/netx"
)

// Providers returns the providers of a as ASNs, sorted.
func (g *Graph) Providers(a asn.ASN) []asn.ASN { return g.asASNs(g.providers[g.mustIdx(a)]) }

// Peers returns the peers of a as ASNs, sorted.
func (g *Graph) Peers(a asn.ASN) []asn.ASN { return g.asASNs(g.peers[g.mustIdx(a)]) }

// Origins returns the prefixes originated by a.
func (g *Graph) Origins(a asn.ASN) []netip.Prefix { return g.origins[g.mustIdx(a)] }

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	for _, a := range []AS{
		{ASN: 1, Name: "One", Registered: "US", Class: ClassTier1},
		{ASN: 2, Name: "Two", Registered: "US", Class: ClassTransit},
		{ASN: 3, Name: "Three", Registered: "JP", Class: ClassStub},
		{ASN: 4, Name: "RS", Registered: "DE", Class: ClassRouteServer},
	} {
		g.MustAddAS(a)
	}
	return g
}

func TestAddASDuplicate(t *testing.T) {
	g := testGraph(t)
	if err := g.AddAS(AS{ASN: 1}); err == nil {
		t.Error("duplicate AddAS should fail")
	}
}

func TestEdgesAndRel(t *testing.T) {
	g := testGraph(t)
	if err := g.AddP2C(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddP2C(1, 2); err == nil {
		t.Error("duplicate edge should fail")
	}
	if err := g.AddP2C(2, 1); err == nil {
		t.Error("reverse duplicate edge should fail")
	}
	if err := g.AddP2C(1, 1); err == nil {
		t.Error("self edge should fail")
	}
	if err := g.AddP2P(2, 3, 4); err != nil {
		t.Fatal(err)
	}
	if g.Rel(1, 2) != RelP2C || g.Rel(2, 1) != RelC2P {
		t.Error("p2c relationship wrong")
	}
	if g.Rel(2, 3) != RelP2P || g.Rel(3, 2) != RelP2P {
		t.Error("p2p relationship wrong")
	}
	if g.Rel(1, 3) != RelNone || g.Rel(1, 99) != RelNone {
		t.Error("absent relationship wrong")
	}
	i2, _ := g.Index(2)
	i3, _ := g.Index(3)
	if g.ViaRS(i2, i3) != 4 || g.ViaRS(i3, i2) != 4 {
		t.Error("ViaRS should be symmetric")
	}
	if got := g.Customers(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("Customers(1) = %v", got)
	}
	if got := g.Providers(2); len(got) != 1 || got[0] != 1 {
		t.Errorf("Providers(2) = %v", got)
	}
	if got := g.Peers(3); len(got) != 1 || got[0] != 2 {
		t.Errorf("Peers(3) = %v", got)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := testGraph(t)
	g.AddP2C(1, 2)
	g.AddP2P(2, 3, 4)
	g.RemoveEdge(1, 2)
	g.RemoveEdge(3, 2)
	if g.Rel(1, 2) != RelNone || g.Rel(2, 3) != RelNone {
		t.Error("edges should be gone")
	}
	i2, _ := g.Index(2)
	i3, _ := g.Index(3)
	if g.ViaRS(i2, i3) != 0 {
		t.Error("RS mapping should be gone")
	}
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

func TestCloneIndependence(t *testing.T) {
	g := testGraph(t)
	g.AddP2C(1, 2)
	g.Originate(3, netx.MustPrefix("10.0.0.0/24"))
	c := g.Clone()
	c.RemoveEdge(1, 2)
	c.Originate(3, netx.MustPrefix("10.0.1.0/24"))
	if g.Rel(1, 2) != RelP2C {
		t.Error("clone mutation leaked into original")
	}
	if len(g.Origins(3)) != 1 || len(c.Origins(3)) != 2 {
		t.Error("origins aliased between clone and original")
	}
	if c.Rel(2, 1) != RelNone {
		t.Error("clone edge removal incomplete")
	}
}

func TestRegistryAndRouteServers(t *testing.T) {
	g := testGraph(t)
	allocated := map[asn.ASN]bool{}
	g.Registry().ForEach(func(a asn.ASN) { allocated[a] = true })
	if !allocated[1] || !allocated[4] {
		t.Error("graph ASNs should be allocated")
	}
	if allocated[99] {
		t.Error("unknown ASN should be unallocated")
	}
	rs := g.RouteServers()
	if !rs[4] || rs[1] || len(rs) != 1 {
		t.Errorf("route servers = %v", rs)
	}
}

func TestAllPrefixesOrderAndOrigins(t *testing.T) {
	g := testGraph(t)
	g.Originate(3, netx.MustPrefix("11.0.0.0/8"))
	g.Originate(1, netx.MustPrefix("10.0.0.0/8"))
	g.Originate(1, netx.MustPrefix("10.0.0.0/16"))
	all := g.AllPrefixes()
	if len(all) != 3 {
		t.Fatalf("AllPrefixes = %v", all)
	}
	if all[0].Prefix != netx.MustPrefix("10.0.0.0/8") || all[0].Origin != 1 {
		t.Errorf("first = %+v", all[0])
	}
	if all[1].Prefix != netx.MustPrefix("10.0.0.0/16") {
		t.Errorf("second = %+v", all[1])
	}
	if all[2].Origin != 3 {
		t.Errorf("third = %+v", all[2])
	}
}

func TestClassAndRelStrings(t *testing.T) {
	for _, c := range []Class{ClassTier1, ClassTransit, ClassAccess, ClassContent, ClassStub, ClassRouteServer, Class(99)} {
		if c.String() == "" {
			t.Errorf("Class(%d) has empty string", c)
		}
	}
	for _, r := range []Rel{RelNone, RelP2C, RelC2P, RelP2P, Rel(9)} {
		if r.String() == "" {
			t.Errorf("Rel(%d) has empty string", r)
		}
	}
}
