// Package cone computes prefix-level customer cones (§1.1, Figure 1): for
// each sanitized AS path, the segment up to and including the first
// peer↔peer link (or up to the provider side of the first provider→customer
// link) is discarded, and every AS on the remaining provider→customer chain
// absorbs the path's prefix into its cone. An AS's cone score is the number
// of addresses of the distinct prefixes in its cone, so the metric captures
// how much of the considered address space pays the AS — directly or
// through customers of customers — for transit.
//
// "Distinct" comes from visiting the view's records prefix by prefix (see
// ComputeFrom), never from materializing and sorting (AS, prefix) pairs.
//
// There are two entry points, chosen by the caller. ComputeFrom scores a
// view once and only stamps each (AS, prefix) membership. Witness
// materializes a view's memberships with the vantage points that witness
// each, so that Each can stream the cone sizes over any subset of the view's
// VPs without walking a record or building a map (Addresses is Each into
// one) — worth it when many subsets of one view follow
// (core.Pipeline.Stability), not for one pass over a large view.
package cone

import (
	"sync"

	"countryrank/internal/asn"
	"countryrank/internal/relation"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

// Scores holds address-weighted cone sizes within one view's scope.
type Scores struct {
	// Addresses[a] is the total address weight of distinct prefixes in a's
	// customer cone, restricted to the view's prefixes.
	Addresses map[asn.ASN]uint64
	// Total is the address weight of all distinct prefixes in the view:
	// the denominator for Share.
	Total uint64
}

// Share returns a's cone as a fraction of the view's address space.
func (s Scores) Share(a asn.ASN) float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Addresses[a]) / float64(s.Total)
}

// Shares returns every AS's fractional score.
func (s Scores) Shares() map[asn.ASN]float64 {
	out := make(map[asn.ASN]float64, len(s.Addresses))
	for a := range s.Addresses {
		out[a] = s.Share(a)
	}
	return out
}

// scratch is the kernel's reusable flat state. Records are counting-sorted
// by prefix, then each prefix's run is walked once while stamp remembers
// which ASes the current prefix has already credited, so an (AS, prefix)
// pair adds the prefix's weight exactly once without ever being
// materialized. Nothing in it escapes ComputeFrom.
//
// Pool invariant: byPrefix.Cnt, stamp and addr are all-zero between calls;
// every write is undone through the byPrefix.Used/idsUsed dirty lists, which
// keeps a call O(records × chain) rather than O(prefixes + ASes) — stability
// trials run it over tiny VP subsets.
type scratch struct {
	byPrefix sanitize.Groups
	stamp    []int32  // per AS id: 1 + byPrefix.Used position of the last prefix credited
	addr     []uint64 // per AS id: address weight credited so far
	idsUsed  []int32  // AS ids credited by any prefix this call
	sel      []uint64 // Witnesses.Each: the chosen VP positions as a bitset
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Starts precomputes, for every collection path, the index in its clean
// form where the retained provider→customer chain begins (len(path)-1 when
// only the origin's self-membership survives, negative for an empty path).
// The chain rule reads nothing but the path, so the result is indexed by
// sanitize.Dataset.PathIndex and shared by every record on that path; it
// depends only on (ds, rels) — never on the view — so callers that compute
// cones over many views or VP subsets of the same dataset pay the
// relationship lookups once and pass the result to ComputeFrom.
func Starts(ds *sanitize.Dataset, rels relation.Oracle) []int32 {
	memo := relation.NewMemo(rels, ds.ASNOf)
	starts := make([]int32, ds.NumPaths())
	for q := range starts {
		starts[q] = pathStart(ds.PathIDs(q), memo)
	}
	return starts
}

// pathStart resolves one clean path's retained-chain start (see Starts)
// from its dense ids.
func pathStart(path []int32, rels *relation.Memo) int32 {
	start := chainStart(path, rels)
	if start < 0 {
		return -1
	}
	// The retained segment must be a pure provider→customer chain down to
	// the origin; if any link breaks (possible with imperfect inferred
	// relationships), the record contributes nothing beyond the origin's
	// self-membership.
	for j := start; j+1 < len(path); j++ {
		if rels.Rel(path[j], path[j+1]) != topology.RelP2C {
			return int32(len(path) - 1)
		}
	}
	return int32(start)
}

// ComputeFrom calculates cones over the given accepted-record positions of
// ds (pass nil for all records). rels supplies relationship labels — the
// ground-truth graph or an inferred table — and starts the precomputed
// chain starts (see Starts); nil resolves them here.
//
// The result is bit-identical to the map-based reference the property tests
// keep: every sum is a uint64, so neither the order prefixes are visited in
// nor the order of records inside a prefix's run can show. A position
// repeated in recs changes nothing, and a record with an empty clean path
// still counts its prefix toward Total.
func ComputeFrom(ds *sanitize.Dataset, recs []int32, rels relation.Oracle, starts []int32) Scores {
	if starts == nil {
		starts = Starts(ds, rels)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	ds.GroupByPrefix(&sc.byPrefix, recs)
	sc.stamp = sanitize.Grow(sc.stamp, ds.NumAS())
	sc.addr = sanitize.Grow(sc.addr, ds.NumAS())
	sc.idsUsed = sc.idsUsed[:0]

	s := Scores{}
	for k, p := range sc.byPrefix.Used {
		mark, w := int32(k+1), ds.Weight[p]
		s.Total += w
		for _, i := range sc.byPrefix.Run(p) {
			start := starts[ds.PathIndex(int(i))]
			if start < 0 {
				continue
			}
			_, _, ids := ds.RecordIDs(int(i))
			for _, id := range ids[start:] {
				if sc.stamp[id] == mark {
					continue
				}
				if sc.stamp[id] == 0 {
					sc.idsUsed = append(sc.idsUsed, id)
				}
				sc.stamp[id] = mark
				sc.addr[id] += w
			}
		}
		sc.byPrefix.Cnt[p] = 0 // restore the pool invariant
	}

	s.Addresses = make(map[asn.ASN]uint64, len(sc.idsUsed))
	for _, id := range sc.idsUsed {
		s.Addresses[ds.ASNOf[id]] = sc.addr[id]
		sc.stamp[id], sc.addr[id] = 0, 0 // likewise
	}
	return s
}

// chainStart returns the index in path where the provider→customer chain
// begins: after the first peer↔peer link, or at the provider side of the
// first provider→customer link. When the whole path climbs (or relations
// are unknown), only the origin remains in scope. Returns -1 for an empty
// path.
func chainStart(path []int32, rels *relation.Memo) int {
	if len(path) == 0 {
		return -1
	}
	for i := 0; i+1 < len(path); i++ {
		switch rels.Rel(path[i], path[i+1]) {
		case topology.RelP2P:
			return i + 1
		case topology.RelP2C:
			return i
		}
	}
	return len(path) - 1
}

// each visits the requested accepted-record positions, or all of them when
// recs is nil.
func each(ds *sanitize.Dataset, recs []int32, f func(i int)) {
	if recs == nil {
		for i := 0; i < ds.Len(); i++ {
			f(i)
		}
		return
	}
	for _, i := range recs {
		f(int(i))
	}
}
