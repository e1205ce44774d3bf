package routing

import (
	"math/rand"
	"slices"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/netx"
	"countryrank/internal/topology"
)

// figure1Graph builds the topology of the paper's Figure 1:
// C provider of D; D provider of E and F; A, B, C mutual peers;
// A provider of G; B provider of H. VPs sit in G and H.
func figure1Graph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	for _, a := range []struct {
		asn  uint32
		name string
	}{
		{10, "A"}, {20, "B"}, {30, "C"}, {40, "D"}, {50, "E"}, {60, "F"}, {70, "G"}, {80, "H"},
	} {
		g.MustAddAS(topology.AS{ASN: asn.ASN(a.asn), Name: a.name, Registered: "US", Class: topology.ClassTransit})
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddP2C(30, 40)) // C < D
	must(g.AddP2C(40, 50)) // D < E
	must(g.AddP2C(40, 60)) // D < F
	must(g.AddP2P(10, 20, 0))
	must(g.AddP2P(10, 30, 0))
	must(g.AddP2P(20, 30, 0))
	must(g.AddP2C(10, 70)) // A < G
	must(g.AddP2C(20, 80)) // B < H
	return g
}

func pathAt(t *testing.T, g *topology.Graph, st *propState, a asn.ASN) bgp.Path {
	t.Helper()
	i, ok := g.Index(a)
	if !ok {
		t.Fatalf("no node %v", a)
	}
	return appendPath(g, st, i, nil)
}

func TestFigure1Paths(t *testing.T) {
	g := figure1Graph(t)
	st := newPropState(g)
	origin, _ := g.Index(50) // E announces
	propagate(g, origin, st)

	// VP at G: G's provider A peers with C, C learned E via its customer
	// chain: G A C D E.
	if got := pathAt(t, g, st, 70); !got.Equal(bgp.Path{70, 10, 30, 40, 50}) {
		t.Errorf("path at G = %v", got)
	}
	// VP at H: H B C D E.
	if got := pathAt(t, g, st, 80); !got.Equal(bgp.Path{80, 20, 30, 40, 50}) {
		t.Errorf("path at H = %v", got)
	}
	// A and B learn via peer C (peer route).
	if got := pathAt(t, g, st, 10); !got.Equal(bgp.Path{10, 30, 40, 50}) {
		t.Errorf("path at A = %v", got)
	}
	// F learns via its provider D.
	if got := pathAt(t, g, st, 60); !got.Equal(bgp.Path{60, 40, 50}) {
		t.Errorf("path at F = %v", got)
	}
	// Origin's own path.
	if got := pathAt(t, g, st, 50); !got.Equal(bgp.Path{50}) {
		t.Errorf("path at E = %v", got)
	}
}

// TestPreferCustomerOverPeerOverProvider pins the Gao–Rexford preference.
func TestPreferCustomerOverPeerOverProvider(t *testing.T) {
	g := topology.NewGraph()
	for _, a := range []uint32{1, 2, 3, 4} {
		g.MustAddAS(topology.AS{ASN: asn.ASN(a), Class: topology.ClassTransit, Registered: "US"})
	}
	// Node 1 can reach origin 4 three ways: via customer 4 directly (p2c),
	// via peer 4? Build: 1 provider of 2; 2 provider of 4 (customer chain
	// 1<2<4); 1 peers with 3; 3 provider of 4. Customer route (1 2 4,
	// length 3) must beat peer route (1 3 4) even at equal length.
	if err := g.AddP2C(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddP2C(2, 4); err != nil {
		t.Fatal(err)
	}
	if err := g.AddP2P(1, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddP2C(3, 4); err != nil {
		t.Fatal(err)
	}
	st := newPropState(g)
	origin, _ := g.Index(4)
	propagate(g, origin, st)
	if got := pathAt(t, g, st, 1); !got.Equal(bgp.Path{1, 2, 4}) {
		t.Errorf("customer route should win: %v", got)
	}

	// Remove the customer chain: the peer route must now win over any
	// provider route.
	g2 := topology.NewGraph()
	for _, a := range []uint32{1, 3, 4, 5} {
		g2.MustAddAS(topology.AS{ASN: asn.ASN(a), Class: topology.ClassTransit, Registered: "US"})
	}
	g2.AddP2P(1, 3, 0)
	g2.AddP2C(3, 4)
	g2.AddP2C(5, 1) // 5 is 1's provider
	g2.AddP2C(5, 4) // provider route 1 5 4 available
	st2 := newPropState(g2)
	origin2, _ := g2.Index(4)
	propagate(g2, origin2, st2)
	if got := pathAt(t, g2, st2, 1); !got.Equal(bgp.Path{1, 3, 4}) {
		t.Errorf("peer route should beat provider route: %v", got)
	}
}

func TestShortestBeatsLonger(t *testing.T) {
	g := topology.NewGraph()
	for _, a := range []uint32{1, 20, 30, 35, 4} {
		g.MustAddAS(topology.AS{ASN: asn.ASN(a), Class: topology.ClassTransit, Registered: "US"})
	}
	// Customer routes from 1 to 4: direct via 20 (2 hops) and via 30-35
	// (3 hops). Shorter must win regardless of tie-break hashing.
	g.AddP2C(1, 20)
	g.AddP2C(1, 30)
	g.AddP2C(20, 4)
	g.AddP2C(30, 35)
	g.AddP2C(35, 4)
	st := newPropState(g)
	origin, _ := g.Index(4)
	propagate(g, origin, st)
	if got := pathAt(t, g, st, 1); !got.Equal(bgp.Path{1, 20, 4}) {
		t.Errorf("shortest customer route should win: %v", got)
	}
}

func TestEqualCostTieBreakDeterministic(t *testing.T) {
	build := func() *topology.Graph {
		g := topology.NewGraph()
		for _, a := range []uint32{1, 20, 30, 4} {
			g.MustAddAS(topology.AS{ASN: asn.ASN(a), Class: topology.ClassTransit, Registered: "US"})
		}
		g.AddP2C(1, 20)
		g.AddP2C(1, 30)
		g.AddP2C(20, 4)
		g.AddP2C(30, 4)
		return g
	}
	g := build()
	st := newPropState(g)
	origin, _ := g.Index(4)
	propagate(g, origin, st)
	first := slices.Clone(pathAt(t, g, st, 1))
	if !first.Equal(bgp.Path{1, 20, 4}) && !first.Equal(bgp.Path{1, 30, 4}) {
		t.Fatalf("tie-break picked a non-candidate: %v", first)
	}
	// Re-running on a freshly built graph must reproduce the same choice.
	for i := 0; i < 3; i++ {
		g2 := build()
		st2 := newPropState(g2)
		origin2, _ := g2.Index(4)
		propagate(g2, origin2, st2)
		if got := pathAt(t, g2, st2, 1); !got.Equal(first) {
			t.Fatalf("tie-break unstable: %v vs %v", got, first)
		}
	}
}

func TestValleyFreePropagation(t *testing.T) {
	// Peer and provider routes must not be re-exported to peers/providers:
	// G (customer of A) reaches E in Figure 1, but C's peers A and B must
	// not relay A's peer route onward to each other's customers as a
	// shortcut. Verify no path violates valley-freeness on the full world.
	w := topology.Build(topology.Config{Seed: 5, StubScale: 0.1, VPScale: 0.1})
	col := BuildCollection(w, BuildOptions{LoopFrac: -1, PoisonFrac: -1, UnallocFrac: -1})
	rs := w.Graph.RouteServers()
	checked := 0
	for i := 0; i < len(col.Records); i++ {
		p := slices.Compact(slices.Clone(col.PathOf(i)))
		// Strip route-server hops: they are transparent.
		clean := make(bgp.Path, 0, len(p))
		for _, a := range p {
			if !rs[a] {
				clean = append(clean, a)
			}
		}
		if !valleyFree(w.Graph, clean) {
			t.Fatalf("path %v violates valley-freeness", p)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no records checked")
	}
}

// valleyFree reports whether the relationship sequence along the path (VP
// side first) is uphill (c2p), at most one peer step, then downhill (p2c).
func valleyFree(g *topology.Graph, p bgp.Path) bool {
	const (
		up = iota
		peered
		down
	)
	state := up
	for i := 0; i+1 < len(p); i++ {
		rel := g.Rel(p[i], p[i+1])
		switch rel {
		case topology.RelC2P:
			if state != up {
				return false
			}
		case topology.RelP2P:
			if state != up {
				return false
			}
			state = peered
		case topology.RelP2C:
			state = down
		default:
			return false // adjacent ASes with no relationship
		}
	}
	return true
}

func TestPrependAppearsAndDedups(t *testing.T) {
	g := topology.NewGraph()
	g.MustAddAS(topology.AS{ASN: 1, Class: topology.ClassTransit, Registered: "US"})
	g.MustAddAS(topology.AS{ASN: 2, Class: topology.ClassStub, Registered: "US", Prepend: 2})
	g.AddP2C(1, 2)
	st := newPropState(g)
	origin, _ := g.Index(2)
	propagate(g, origin, st)
	got := pathAt(t, g, st, 1)
	if !got.Equal(bgp.Path{1, 2, 2, 2}) {
		t.Errorf("prepended path = %v", got)
	}
	if got.HasNonAdjacentLoop() {
		t.Errorf("prepended path %v reads as a loop", got)
	}
}

func TestRouteServerInPath(t *testing.T) {
	g := topology.NewGraph()
	g.MustAddAS(topology.AS{ASN: 1, Class: topology.ClassAccess, Registered: "DE"})
	g.MustAddAS(topology.AS{ASN: 2, Class: topology.ClassAccess, Registered: "DE"})
	g.MustAddAS(topology.AS{ASN: 6695, Class: topology.ClassRouteServer, Registered: "DE"})
	g.MustAddAS(topology.AS{ASN: 9, Class: topology.ClassStub, Registered: "DE"})
	g.AddP2P(1, 2, 6695)
	g.AddP2C(2, 9)
	st := newPropState(g)
	origin, _ := g.Index(9)
	propagate(g, origin, st)
	got := pathAt(t, g, st, 1)
	if !got.Equal(bgp.Path{1, 6695, 2, 9}) {
		t.Errorf("route-server path = %v", got)
	}
}

func TestNoRouteForDisconnected(t *testing.T) {
	g := topology.NewGraph()
	g.MustAddAS(topology.AS{ASN: 1, Class: topology.ClassStub, Registered: "US"})
	g.MustAddAS(topology.AS{ASN: 2, Class: topology.ClassStub, Registered: "US"})
	g.Originate(2, netx.MustPrefix("10.0.0.0/24"))
	st := newPropState(g)
	origin, _ := g.Index(2)
	propagate(g, origin, st)
	i1, _ := g.Index(1)
	arena := []asn.ASN{7}
	if p := appendPath(g, st, i1, arena); len(p) != 1 || p[0] != 7 {
		t.Errorf("disconnected AS got a path: %v", p)
	}
}

// shuffledCopy rebuilds g with the same ASes and edges inserted in a random
// order: node indexes, adjacency orders and therefore every BFS frontier and
// offer order differ, while the ASN-level topology is the same.
func shuffledCopy(t *testing.T, g *topology.Graph, rng *rand.Rand) *topology.Graph {
	t.Helper()
	n := int32(g.NumASes())
	type edge struct {
		a, b, rs asn.ASN
		p2c      bool
	}
	var edges []edge
	for u := int32(0); u < n; u++ {
		for _, c := range g.CustomersIdx(u) {
			edges = append(edges, edge{a: g.Node(u).ASN, b: g.Node(c).ASN, p2c: true})
		}
		for _, v := range g.PeersIdx(u) {
			if u < v {
				edges = append(edges, edge{a: g.Node(u).ASN, b: g.Node(v).ASN, rs: g.ViaRS(u, v)})
			}
		}
	}
	out := topology.NewGraph()
	for _, i := range rng.Perm(int(n)) {
		out.MustAddAS(g.Node(int32(i)))
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		var err error
		switch {
		case e.p2c:
			err = out.AddP2C(e.a, e.b)
		case rng.Intn(2) == 0:
			err = out.AddP2P(e.a, e.b, e.rs)
		default:
			err = out.AddP2P(e.b, e.a, e.rs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestPropagateFrontierOrderFree pins what lets propagate leave its
// frontiers unsorted: the routing tree is a function of the offer sets, so
// two graphs that differ only in node numbering and adjacency order (and
// hence in every frontier and offer order) route every AS identically.
func TestPropagateFrontierOrderFree(t *testing.T) {
	g := testWorld(t).Graph
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 2; round++ {
		g2 := shuffledCopy(t, g, rng)
		st, st2 := newPropState(g), newPropState(g2)
		for origin := int32(0); origin < int32(g.NumASes()); origin++ {
			origin2, _ := g2.Index(g.Node(origin).ASN)
			propagate(g, origin, st)
			propagate(g2, origin2, st2)
			for v := int32(0); v < int32(g.NumASes()); v++ {
				v2, _ := g2.Index(g.Node(v).ASN)
				if st.class[v] != st2.class[v2] || st.dist[v] != st2.dist[v2] {
					t.Fatalf("origin %v, %v: class/dist %d/%d vs %d/%d after reordering",
						g.Node(origin).ASN, g.Node(v).ASN, st.class[v], st.dist[v], st2.class[v2], st2.dist[v2])
				}
				parent, parent2 := asn.ASN(0), asn.ASN(0)
				if p := st.parent[v]; p >= 0 {
					parent = g.Node(p).ASN
				}
				if p := st2.parent[v2]; p >= 0 {
					parent2 = g2.Node(p).ASN
				}
				if parent != parent2 {
					t.Fatalf("origin %v, %v: parent %v vs %v after reordering",
						g.Node(origin).ASN, g.Node(v).ASN, parent, parent2)
				}
			}
		}
	}
}
