// Package cti implements the Country-level Transit Influence baseline of
// Gamero-Garrido et al. as the paper describes it in §1.3: a modified
// betweenness over paths from out-of-country vantage points, counting only
// the transit (provider→customer) portion of each path, scoring each AS by
// the path prefix's addresses weighted by 1/k where k is the AS's distance
// from the origin (so the origin itself scores 0), and trimming the top and
// bottom 10% of per-VP values like hegemony.
package cti

import (
	"sync"

	"countryrank/internal/asn"
	"countryrank/internal/hegemony"
	"countryrank/internal/relation"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

// Scores holds CTI values per AS.
type Scores struct {
	CTI     map[asn.ASN]float64
	VPCount int
}

// scratch is the dense kernel's reusable flat state, mirroring the
// hegemony kernel: per-VP accumulation into id-indexed slices, each VP's
// (id, share) run appended to pv. The same pool invariant applies: byVP.Cnt,
// seen and asF are zeroed between calls through the byVP.Used/touched dirty
// lists, keeping each call O(records + touched entries), and pv names no
// dataset.
type scratch struct {
	byVP    sanitize.Groups
	asF     []float64 // per AS id: score accumulated for the current VP
	seen    []bool
	touched []int32
	shares  []float64 // asF over the current VP's total, in touched order
	pv      hegemony.PerVP
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Depths precomputes, for every collection path, how many hops of its clean
// form's origin-side provider→customer chain score (the transit portion's
// length). The result is indexed by sanitize.Dataset.PathIndex and shared by
// every record on that path; it depends only on (ds, rels), never on the
// view, so callers computing CTI over many views or VP subsets can pay the
// relationship lookups once and pass the result to ComputeFrom.
func Depths(ds *sanitize.Dataset, rels relation.Oracle) []int32 {
	memo := relation.NewMemo(rels, ds.ASNOf)
	depths := make([]int32, ds.NumPaths())
	for q := range depths {
		path := ds.PathIDs(q)
		var d int32
		for j := len(path) - 2; j >= 0; j-- {
			if memo.Rel(path[j], path[j+1]) != topology.RelP2C {
				break
			}
			d++
		}
		depths[q] = d
	}
	return depths
}

// ComputeFrom calculates CTI over the given accepted-record positions (the
// caller passes an international view: out-of-country VPs toward in-country
// prefixes) with precomputed transit depths (see Depths); nil resolves them
// here. trim < 0 selects the canonical 10%.
//
// The dense-id kernel is bit-identical to the map-based reference the
// property tests keep (reference_test.go): records are processed grouped by
// VP but in record order inside each group, so every float accumulation
// happens in the reference's order; the trimmed mean across VPs is
// hegemony's.
func ComputeFrom(ds *sanitize.Dataset, recs []int32, rels relation.Oracle, depths []int32, trim float64) Scores {
	if depths == nil {
		depths = Depths(ds, rels)
	}
	nAS := ds.NumAS()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	ds.GroupByVP(&sc.byVP, recs)

	sc.asF = sanitize.Grow(sc.asF, nAS)
	sc.seen = sanitize.Grow(sc.seen, nAS)
	sc.pv.Reset(ds.ASNOf)

	for _, v := range sc.byVP.Used {
		sc.touched = sc.touched[:0]
		var total uint64
		for _, i := range sc.byVP.Run(v) {
			_, pfxIdx, ids := ds.RecordIDs(int(i))
			w := ds.Weight[pfxIdx]
			total += w
			// Walk the transit (provider→customer) chain from the origin
			// side: ids[len-1] is the origin (k=0); moving toward the VP,
			// an AS at distance k scores w/k for as many hops as the link
			// below is p2c.
			last := len(ids) - 1 - int(depths[ds.PathIndex(int(i))])
			for j := len(ids) - 2; j >= last; j-- {
				k := len(ids) - 1 - j
				id := ids[j]
				if !sc.seen[id] {
					sc.seen[id] = true
					sc.asF[id] = 0
					sc.touched = append(sc.touched, id)
				}
				sc.asF[id] += float64(w) / float64(k)
			}
		}
		if total > 0 {
			sc.shares = sc.shares[:0]
			ft := float64(total)
			for _, id := range sc.touched {
				sc.shares = append(sc.shares, sc.asF[id]/ft)
			}
			sc.pv.AppendVP(sc.touched, sc.shares, true)
		} else {
			sc.pv.AppendVP(nil, nil, false)
		}
		for _, id := range sc.touched { // restore the pool invariant
			sc.seen[id] = false
			sc.asF[id] = 0
		}
		sc.byVP.Cnt[v] = 0 // likewise
	}

	hs := sc.pv.Scores(nil, trim)
	sc.pv.Reset(nil)
	return Scores{CTI: hs.Hegemony, VPCount: hs.VPCount}
}
