// Package cti implements the Country-level Transit Influence baseline of
// Gamero-Garrido et al. as the paper describes it in §1.3: a modified
// betweenness over paths from out-of-country vantage points, counting only
// the transit (provider→customer) portion of each path, scoring each AS by
// the path prefix's addresses weighted by 1/k where k is the AS's distance
// from the origin (so the origin itself scores 0), and trimming the top and
// bottom 10% of per-VP values like hegemony — whose AS × VP sums
// (hegemony.Sums) and trimmed mean it uses.
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

// scratchPool holds CTI's own per-(AS, VP) sums: CTI fills them with
// fractional transit weights, hegemony with whole path weights.
var scratchPool = sync.Pool{New: func() any { return new(hegemony.Sums) }}

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
// The records are summed into hegemony's AS × VP matrix in the order the
// view lists them, so each (AS, VP) cell adds its w/k terms in the order of
// that VP's records — the map-based reference's order (reference_test.go),
// bit for bit — and the trimmed mean across VPs is hegemony's.
func ComputeFrom(ds *sanitize.Dataset, recs []int32, rels relation.Oracle, depths []int32, trim float64) Scores {
	if depths == nil {
		depths = Depths(ds, rels)
	}
	s := scratchPool.Get().(*hegemony.Sums)
	defer scratchPool.Put(s)
	for r, n := 0, s.Start(ds, recs); r < n; r++ {
		i := r
		if recs != nil {
			i = int(recs[r])
		}
		v, pfxIdx, ids := ds.RecordIDs(i)
		w := ds.Weight[pfxIdx]
		s.Run(v, w)
		// Walk the transit (provider→customer) chain from the origin side:
		// ids[len-1] is the origin (k=0); moving toward the VP, an AS at
		// distance k scores w/k for as many hops as the link below is p2c.
		last := len(ids) - 1 - int(depths[ds.PathIndex(i)])
		for j := len(ids) - 2; j >= last; j-- {
			s.Add(ids[j:j+1], float64(w)/float64(len(ids)-1-j))
		}
	}
	hs := s.Scores(trim)
	return Scores{CTI: hs.Hegemony, VPCount: hs.VPCount}
}
