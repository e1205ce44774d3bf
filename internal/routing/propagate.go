// Package routing simulates BGP route propagation over the AS topology and
// assembles the vantage-point path collections the ranking pipeline consumes.
// Propagation follows the Gao–Rexford model that underpins the valley-free
// assumption the paper's metrics rely on: routes learned from customers are
// exported to everyone, routes learned from peers or providers only to
// customers, and each AS prefers customer routes over peer routes over
// provider routes, breaking ties by shortest AS path and then by a stable
// per-(AS, neighbor) hash.
//
// The per-origin routing tree is the unit of work. propagate fills it in
// three breadth-first phases and never orders a frontier: within a class an
// AS keeps the minimum of the offers it receives under better, which is a
// strict total order over (distance, tie hash, neighbor ASN), so class, dist
// and parent are functions of the offer sets, not of the order offers arrive
// in (TestPropagateFrontierOrderFree). appendPath then reads a vantage
// point's path straight off the tree into a caller-owned arena.
package routing

import (
	"countryrank/internal/asn"
	"countryrank/internal/topology"
)

// Route class in preference order. Lower is preferred.
const (
	classOrigin   uint8 = 0
	classCustomer uint8 = 1
	classPeer     uint8 = 2
	classProvider uint8 = 3
	classNone     uint8 = 4
)

// offer is a deferred phase-2 route offer across a peering link.
type offer struct{ to, via int32 }

// propState holds per-origin propagation state, reused across origins to
// avoid reallocation. The BFS queues, peer-offer list and distance buckets
// keep their backing arrays between origins, so a warm propagate call
// allocates nothing.
type propState struct {
	class  []uint8
	dist   []int32
	parent []int32
	// asns caches g.ASNs() so the tie-break and path-extraction hot paths
	// (better, appendPath) do not re-fetch the slice per hop.
	asns []asn.ASN
	// pathAt[v] is the number the current origin's path from node v was
	// given by BuildCollection's producer, or -1: vantage points that share
	// an AS export the same path, which is laid into the arena once.
	pathAt []int32
	// cur / next are phase 1's ping-pong BFS queues; offers is phase 2's
	// deferred offer list; buckets are phase 3's distance buckets.
	cur, next []int32
	offers    []offer
	buckets   [][]int32
}

func newPropState(g *topology.Graph) *propState {
	n := g.NumASes()
	return &propState{
		class:  make([]uint8, n),
		dist:   make([]int32, n),
		parent: make([]int32, n),
		asns:   g.ASNs(),
		pathAt: make([]int32, n),
	}
}

func (s *propState) reset() {
	for i := range s.class {
		s.class[i] = classNone
		s.dist[i] = 0
		s.parent[i] = -1
		s.pathAt[i] = -1
	}
	s.cur = s.cur[:0]
	s.next = s.next[:0]
	s.offers = s.offers[:0]
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.buckets = s.buckets[:0]
}

// growBuckets extends the bucket list to n entries, re-exposing retired
// inner arrays (and their capacity) instead of allocating fresh ones.
func (s *propState) growBuckets(n int32) {
	for int32(len(s.buckets)) < n {
		if len(s.buckets) < cap(s.buckets) {
			s.buckets = s.buckets[:len(s.buckets)+1]
		} else {
			s.buckets = append(s.buckets, nil)
		}
	}
}

// bucket appends v to distance bucket d.
func (s *propState) bucket(d int32, v int32) {
	s.growBuckets(d + 1)
	s.buckets[d] = append(s.buckets[d], v)
}

// better reports whether an offer (dist d via neighbor n) beats the current
// route of node v within the same class. Equal-length ties break on a
// deterministic per-(node, neighbor) hash: real BGP resolves such ties on
// router-local state (IGP cost, router ID), which is arbitrary but stable —
// a global "lowest ASN wins" rule would funnel every equal-cost decision in
// the world through the same provider and badly skew path diversity.
func better(g *topology.Graph, s *propState, v int32, d int32, n int32) bool {
	if d != s.dist[v] {
		return d < s.dist[v]
	}
	cur := s.parent[v]
	if cur < 0 {
		return true
	}
	asns := s.asns
	hn, hc := tieHash(asns[v], asns[n]), tieHash(asns[v], asns[cur])
	if hn != hc {
		return hn < hc
	}
	return asns[n] < asns[cur]
}

// tieHash mixes the deciding AS and the candidate neighbor into a stable
// pseudo-random preference.
func tieHash(v, n asn.ASN) uint32 {
	x := uint32(v)*0x9E3779B9 ^ uint32(n)*0x85EBCA6B
	x ^= x >> 16
	x *= 0x7FEB352D
	x ^= x >> 15
	x *= 0x846CA68B
	x ^= x >> 16
	return x
}

// propagate computes every AS's best route toward origin (a node index).
// After it returns, s.class/dist/parent describe the routing tree.
func propagate(g *topology.Graph, origin int32, s *propState) {
	s.reset()
	s.class[origin] = classOrigin
	s.dist[origin] = 0

	// Phase 1: customer routes climb provider links, breadth-first. The two
	// queues ping-pong over the state's reusable backing arrays.
	cur, next := append(s.cur[:0], origin), s.next[:0]
	for len(cur) > 0 {
		next = next[:0]
		for _, u := range cur {
			du := s.dist[u]
			for _, p := range g.ProvidersIdx(u) {
				switch {
				case s.class[p] < classCustomer:
					// origin or already-better class; never overwritten.
				case s.class[p] == classCustomer:
					if du+1 == s.dist[p] && better(g, s, p, du+1, u) {
						s.parent[p] = u
					}
					// Longer offers lose; shorter cannot occur in BFS order.
				default:
					s.class[p] = classCustomer
					s.dist[p] = du + 1
					s.parent[p] = u
					next = append(next, p)
				}
			}
		}
		cur, next = next, cur
	}
	s.cur, s.next = cur[:0], next[:0]

	// Phase 2: one-hop peer spread from every customer-routed AS.
	// Collect offers first so iteration order cannot leak into results.
	offers := s.offers[:0]
	for u := int32(0); u < int32(g.NumASes()); u++ {
		if s.class[u] > classCustomer {
			continue
		}
		for _, v := range g.PeersIdx(u) {
			if s.class[v] > classPeer {
				offers = append(offers, offer{v, u})
			}
		}
	}
	s.offers = offers
	for _, o := range offers {
		d := s.dist[o.via] + 1
		switch {
		case s.class[o.to] < classPeer:
		case s.class[o.to] == classPeer:
			if better(g, s, o.to, d, o.via) {
				s.dist[o.to] = d
				s.parent[o.to] = o.via
			}
		default:
			s.class[o.to] = classPeer
			s.dist[o.to] = d
			s.parent[o.to] = o.via
		}
	}

	// Phase 3: everything flows down customer links, multi-source BFS
	// ordered by distance (buckets; AS paths are short). The buckets and
	// their backing arrays live in the state and are reused across origins.
	maxD := int32(0)
	for u := int32(0); u < int32(g.NumASes()); u++ {
		if s.class[u] <= classPeer && s.dist[u] > maxD {
			maxD = s.dist[u]
		}
	}
	s.growBuckets(maxD + 2)
	for u := int32(0); u < int32(g.NumASes()); u++ {
		if s.class[u] <= classPeer {
			s.buckets[s.dist[u]] = append(s.buckets[s.dist[u]], u)
		}
	}
	for d := int32(0); d < int32(len(s.buckets)); d++ {
		for _, u := range s.buckets[d] {
			if s.dist[u] != d {
				continue // re-bucketed at a smaller distance already
			}
			for _, c := range g.CustomersIdx(u) {
				switch {
				case s.class[c] <= classPeer:
				case s.class[c] == classProvider:
					if d+1 == s.dist[c] && better(g, s, c, d+1, u) {
						s.parent[c] = u
					} else if d+1 < s.dist[c] {
						s.dist[c] = d + 1
						s.parent[c] = u
						s.bucket(d+1, c)
					}
				default:
					s.class[c] = classProvider
					s.dist[c] = d + 1
					s.parent[c] = u
					s.bucket(d+1, c)
				}
			}
		}
	}
}

// appendPath appends to hops the AS path from node v toward the origin of
// the routing tree in s: v's ASN first, origin last. Route-server hops are
// materialized in the path (real collectors see RS ASNs too), and origin
// prepending is applied. hops is returned unchanged when v has no route.
func appendPath(g *topology.Graph, s *propState, v int32, hops []asn.ASN) []asn.ASN {
	if s.class[v] == classNone {
		return hops
	}
	cur := v
	for {
		hops = append(hops, s.asns[cur])
		next := s.parent[cur]
		if next < 0 {
			break
		}
		// A peer-class route is the only one learned across a peering, so it
		// is the only hop a route server can sit on. The session leaks the RS
		// ASN into the path; the sanitizer must strip it later.
		if s.class[cur] == classPeer {
			if rs := g.ViaRS(cur, next); rs != 0 {
				hops = append(hops, rs)
			}
		}
		cur = next
	}
	// The walk ends at the tree's root, the origin.
	for i := g.Node(cur).Prepend; i > 0; i-- {
		hops = append(hops, s.asns[cur])
	}
	return hops
}
