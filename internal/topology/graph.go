// Package topology models the AS-level Internet: autonomous systems with
// registration countries and business classes, provider-customer and peering
// relationships, prefix origination, and a deterministic generator that
// builds a synthetic world mirroring the market structure of the countries
// the paper studies. The generator substitutes for the April 2021 / March
// 2023 RouteViews + RIS snapshots the paper consumed (see DESIGN.md).
package topology

import (
	"fmt"
	"net/netip"
	"sort"

	"countryrank/internal/asn"
	"countryrank/internal/countries"
)

// Class is the business role of an AS in the world model.
type Class uint8

const (
	// ClassTier1 ASes form the transit-free clique at the top of the
	// hierarchy.
	ClassTier1 Class = iota + 1
	// ClassTransit ASes sell transit below the clique (national incumbents'
	// international arms, regional carriers).
	ClassTransit
	// ClassAccess ASes are large national access/eyeball networks.
	ClassAccess
	// ClassContent ASes originate content and peer widely.
	ClassContent
	// ClassStub ASes are edge networks with providers and no customers.
	ClassStub
	// ClassRouteServer ASes are IXP route servers that appear transparently
	// in AS paths and must be removed during sanitization.
	ClassRouteServer
)

func (c Class) String() string {
	switch c {
	case ClassTier1:
		return "tier1"
	case ClassTransit:
		return "transit"
	case ClassAccess:
		return "access"
	case ClassContent:
		return "content"
	case ClassStub:
		return "stub"
	case ClassRouteServer:
		return "route-server"
	}
	return fmt.Sprintf("Class(%d)", c)
}

// AS describes one autonomous system.
type AS struct {
	ASN asn.ASN
	// Name is the operator name used in rendered tables.
	Name string
	// Registered is the country the ASN is registered in, which may differ
	// from where its prefixes geolocate (the paper's Amazon example).
	Registered countries.Code
	Class      Class
	// Prepend is how many extra copies of its own ASN the AS adds when
	// originating routes (traffic engineering); exercises path dedup.
	Prepend int
	// Users is the estimated user population served by the AS, the weight
	// IHR's user-weighted country hegemony variant uses (§1.2.1).
	Users int
}

// Rel is the business relationship between an ordered pair of ASes.
type Rel int8

const (
	// RelNone means no direct relationship.
	RelNone Rel = 0
	// RelP2C means the first AS is a provider of the second.
	RelP2C Rel = 1
	// RelC2P means the first AS is a customer of the second.
	RelC2P Rel = -1
	// RelP2P means the ASes peer.
	RelP2P Rel = 2
)

func (r Rel) String() string {
	switch r {
	case RelNone:
		return "none"
	case RelP2C:
		return "p2c"
	case RelC2P:
		return "c2p"
	case RelP2P:
		return "p2p"
	}
	return fmt.Sprintf("Rel(%d)", r)
}

// Graph is the AS-level topology with ground-truth relationships and prefix
// origination. Node indexes are dense ints assigned in AddAS order; the
// routing simulator works in index space for speed.
type Graph struct {
	nodes []AS
	idx   map[asn.ASN]int32

	providers [][]int32 // providers[i]: nodes that sell transit to i
	customers [][]int32 // customers[i]: nodes that buy transit from i
	peers     [][]int32

	// viaRS maps an undirected peering edge to the route server ASN the
	// session runs through (0 when the peering is direct).
	viaRS map[[2]int32]asn.ASN

	origins [][]netip.Prefix

	// asnCache backs ASNs(); rebuilt whenever the node count changes.
	asnCache []asn.ASN
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{idx: make(map[asn.ASN]int32), viaRS: make(map[[2]int32]asn.ASN)}
}

// AddAS adds a node; duplicate ASNs are an error.
func (g *Graph) AddAS(a AS) error {
	if _, dup := g.idx[a.ASN]; dup {
		return fmt.Errorf("topology: duplicate %v", a.ASN)
	}
	g.idx[a.ASN] = int32(len(g.nodes))
	g.nodes = append(g.nodes, a)
	g.providers = append(g.providers, nil)
	g.customers = append(g.customers, nil)
	g.peers = append(g.peers, nil)
	g.origins = append(g.origins, nil)
	return nil
}

// MustAddAS adds a node and panics on duplicates; for generator use.
func (g *Graph) MustAddAS(a AS) {
	if err := g.AddAS(a); err != nil {
		panic(err)
	}
}

// NumASes returns the node count.
func (g *Graph) NumASes() int { return len(g.nodes) }

// ASNs returns a node-index-ordered ASN slice, built lazily and cached.
// Hot paths in the routing simulator use it to avoid copying AS structs.
// The cache is invalidated by AddAS.
func (g *Graph) ASNs() []asn.ASN {
	if len(g.asnCache) != len(g.nodes) {
		g.asnCache = make([]asn.ASN, len(g.nodes))
		for i, n := range g.nodes {
			g.asnCache[i] = n.ASN
		}
	}
	return g.asnCache
}

// Node returns the AS at index i.
func (g *Graph) Node(i int32) AS { return g.nodes[i] }

// Index returns the node index of a.
func (g *Graph) Index(a asn.ASN) (int32, bool) {
	i, ok := g.idx[a]
	return i, ok
}

// ByASN returns the AS record for a.
func (g *Graph) ByASN(a asn.ASN) (AS, bool) {
	i, ok := g.idx[a]
	if !ok {
		return AS{}, false
	}
	return g.nodes[i], true
}

// AllASNs returns every ASN in ascending order.
func (g *Graph) AllASNs() []asn.ASN {
	out := make([]asn.ASN, 0, len(g.nodes))
	for a := range g.idx {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *Graph) mustIdx(a asn.ASN) int32 {
	i, ok := g.idx[a]
	if !ok {
		panic(fmt.Sprintf("topology: unknown %v", a))
	}
	return i
}

func edgeKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

func contains(s []int32, x int32) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func remove(s []int32, x int32) []int32 {
	for i, v := range s {
		if v == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// AddP2C records provider→customer. Adding an edge that already exists in
// any form is an error, as is a self edge.
func (g *Graph) AddP2C(provider, customer asn.ASN) error {
	p, c := g.mustIdx(provider), g.mustIdx(customer)
	if p == c {
		return fmt.Errorf("topology: self edge %v", provider)
	}
	if g.RelIdx(p, c) != RelNone {
		return fmt.Errorf("topology: edge %v-%v exists", provider, customer)
	}
	g.customers[p] = append(g.customers[p], c)
	g.providers[c] = append(g.providers[c], p)
	return nil
}

// AddP2P records a peering between a and b, optionally through IXP route
// server rs (0 for a direct session).
func (g *Graph) AddP2P(a, b asn.ASN, rs asn.ASN) error {
	ai, bi := g.mustIdx(a), g.mustIdx(b)
	if ai == bi {
		return fmt.Errorf("topology: self peering %v", a)
	}
	if g.RelIdx(ai, bi) != RelNone {
		return fmt.Errorf("topology: edge %v-%v exists", a, b)
	}
	g.peers[ai] = append(g.peers[ai], bi)
	g.peers[bi] = append(g.peers[bi], ai)
	if rs != 0 {
		g.viaRS[edgeKey(ai, bi)] = rs
	}
	return nil
}

// RemoveEdge deletes whatever relationship exists between a and b.
func (g *Graph) RemoveEdge(a, b asn.ASN) {
	ai, bi := g.mustIdx(a), g.mustIdx(b)
	g.customers[ai] = remove(g.customers[ai], bi)
	g.customers[bi] = remove(g.customers[bi], ai)
	g.providers[ai] = remove(g.providers[ai], bi)
	g.providers[bi] = remove(g.providers[bi], ai)
	g.peers[ai] = remove(g.peers[ai], bi)
	g.peers[bi] = remove(g.peers[bi], ai)
	delete(g.viaRS, edgeKey(ai, bi))
}

// Rel returns the ground-truth relationship from a's perspective.
func (g *Graph) Rel(a, b asn.ASN) Rel {
	ai, ok1 := g.idx[a]
	bi, ok2 := g.idx[b]
	if !ok1 || !ok2 {
		return RelNone
	}
	return g.RelIdx(ai, bi)
}

// RelIdx is Rel in node-index space.
func (g *Graph) RelIdx(a, b int32) Rel {
	switch {
	case contains(g.customers[a], b):
		return RelP2C
	case contains(g.providers[a], b):
		return RelC2P
	case contains(g.peers[a], b):
		return RelP2P
	}
	return RelNone
}

// ViaRS returns the route server ASN on the peering a-b, or 0.
func (g *Graph) ViaRS(a, b int32) asn.ASN { return g.viaRS[edgeKey(a, b)] }

// ProvidersIdx returns the provider node indexes of i (shared slice; do not
// mutate).
func (g *Graph) ProvidersIdx(i int32) []int32 { return g.providers[i] }

// CustomersIdx returns the customer node indexes of i.
func (g *Graph) CustomersIdx(i int32) []int32 { return g.customers[i] }

// PeersIdx returns the peer node indexes of i.
func (g *Graph) PeersIdx(i int32) []int32 { return g.peers[i] }

// Customers returns the customers of a as ASNs, sorted.
func (g *Graph) Customers(a asn.ASN) []asn.ASN { return g.asASNs(g.customers[g.mustIdx(a)]) }

func (g *Graph) asASNs(idxs []int32) []asn.ASN {
	out := make([]asn.ASN, len(idxs))
	for i, x := range idxs {
		out[i] = g.nodes[x].ASN
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Originate records that a announces p into BGP.
func (g *Graph) Originate(a asn.ASN, p netip.Prefix) {
	i := g.mustIdx(a)
	g.origins[i] = append(g.origins[i], p.Masked())
}

// NumEdges returns the count of relationship edges (p2c + p2p).
func (g *Graph) NumEdges() int {
	n := 0
	for i := range g.customers {
		n += len(g.customers[i])
		n += len(g.peers[i])
	}
	// peers slices double-count undirected edges.
	p := 0
	for i := range g.peers {
		p += len(g.peers[i])
	}
	return n - p/2
}

// Registry returns an ASN registry with every node's ASN allocated; route
// servers count as allocated (they are registered organizations).
func (g *Graph) Registry() *asn.Registry {
	r := asn.NewRegistry(nil)
	for _, n := range g.nodes {
		r.Allocate(n.ASN)
	}
	return r
}

// RouteServers returns the set of route-server ASNs.
func (g *Graph) RouteServers() map[asn.ASN]bool {
	out := map[asn.ASN]bool{}
	for _, n := range g.nodes {
		if n.Class == ClassRouteServer {
			out[n.ASN] = true
		}
	}
	return out
}

// Clone returns a deep copy, used to derive scenario snapshots.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		nodes: append([]AS(nil), g.nodes...),
		idx:   make(map[asn.ASN]int32, len(g.idx)),
		viaRS: make(map[[2]int32]asn.ASN, len(g.viaRS)),
	}
	for k, v := range g.idx {
		ng.idx[k] = v
	}
	for k, v := range g.viaRS {
		ng.viaRS[k] = v
	}
	cp := func(src [][]int32) [][]int32 {
		out := make([][]int32, len(src))
		for i, s := range src {
			out[i] = append([]int32(nil), s...)
		}
		return out
	}
	ng.providers = cp(g.providers)
	ng.customers = cp(g.customers)
	ng.peers = cp(g.peers)
	ng.origins = make([][]netip.Prefix, len(g.origins))
	for i, s := range g.origins {
		ng.origins[i] = append([]netip.Prefix(nil), s...)
	}
	return ng
}

// AllPrefixes returns every originated prefix with its origin, sorted
// canonically. Duplicate originations (MOAS) are preserved.
type PrefixOrigin struct {
	Prefix netip.Prefix
	Origin asn.ASN
}

// AllPrefixes returns every (prefix, origin) pair in canonical order.
func (g *Graph) AllPrefixes() []PrefixOrigin {
	var out []PrefixOrigin
	for i, ps := range g.origins {
		for _, p := range ps {
			out = append(out, PrefixOrigin{Prefix: p, Origin: g.nodes[i].ASN})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := comparePrefixOrigin(out[i], out[j]); c != 0 {
			return c < 0
		}
		return false
	})
	return out
}

func comparePrefixOrigin(a, b PrefixOrigin) int {
	if a.Prefix != b.Prefix {
		if a.Prefix.Addr() != b.Prefix.Addr() {
			return a.Prefix.Addr().Compare(b.Prefix.Addr())
		}
		return a.Prefix.Bits() - b.Prefix.Bits()
	}
	return int(a.Origin) - int(b.Origin)
}
