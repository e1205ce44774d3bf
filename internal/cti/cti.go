// Package cti implements the Country-level Transit Influence baseline of
// Gamero-Garrido et al. as the paper describes it in §1.3: a modified
// betweenness over paths from out-of-country vantage points, counting only
// the transit (provider→customer) portion of each path, scoring each AS by
// the path prefix's addresses weighted by 1/k where k is the AS's distance
// from the origin (so the origin itself scores 0), and trimming the top and
// bottom 10% of per-VP values like hegemony.
package cti

import (
	"sort"
	"sync"

	"countryrank/internal/asn"
	"countryrank/internal/relation"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

// Scores holds CTI values per AS.
type Scores struct {
	CTI     map[asn.ASN]float64
	VPCount int
}

// Value returns a's CTI (0 when unseen).
func (s Scores) Value(a asn.ASN) float64 { return s.CTI[a] }

// scratch is the dense kernel's reusable flat state, mirroring the
// hegemony kernel: per-VP accumulation into id-indexed slices, then a
// counting sort of (id, value) pairs into per-AS runs. The same pool
// invariant applies: byVP.Cnt, seen, asF, and counts are zeroed between calls
// through the byVP.Used/touched/idsUsed dirty lists, keeping each call
// O(records + touched entries).
type scratch struct {
	byVP     sanitize.Groups
	asF      []float64 // per AS id: score accumulated for the current VP
	seen     []bool
	touched  []int32
	counts   []int32
	idsUsed  []int32
	offsets  []int32
	pairIDs  []int32
	pairVals []float64
	vals     []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Depths precomputes, for every collection path, how many hops of its clean
// form's origin-side provider→customer chain score (the transit portion's
// length). The result is indexed by sanitize.Dataset.PathIndex and shared by
// every record on that path; it depends only on (ds, rels), never on the
// view, so callers computing CTI over many views or VP subsets can pay the
// relationship lookups once and pass the result to ComputeFrom.
func Depths(ds *sanitize.Dataset, rels relation.Oracle) []int32 {
	rels = relation.NewMemo(rels)
	depths := make([]int32, ds.NumPaths())
	for q := range depths {
		path := ds.CleanPath(q)
		var d int32
		for j := len(path) - 2; j >= 0; j-- {
			if rels.Rel(path[j], path[j+1]) != topology.RelP2C {
				break
			}
			d++
		}
		depths[q] = d
	}
	return depths
}

// Compute calculates CTI over the given accepted-record positions (the
// caller passes an international view: out-of-country VPs toward in-country
// prefixes). trim < 0 selects the canonical 10%.
//
// The dense-id kernel is bit-identical to the map-based reference the
// property tests keep (reference_test.go): records are processed grouped by VP but in record order
// inside each group, so every float accumulation happens in the reference's
// order.
func Compute(ds *sanitize.Dataset, recs []int32, rels relation.Oracle, trim float64) Scores {
	return ComputeFrom(ds, recs, rels, nil, trim)
}

// ComputeFrom is Compute with precomputed transit depths (see Depths); nil
// resolves them here.
func ComputeFrom(ds *sanitize.Dataset, recs []int32, rels relation.Oracle, depths []int32, trim float64) Scores {
	if trim < 0 {
		trim = 0.10
	}
	if depths == nil {
		depths = Depths(ds, rels)
	}
	nAS := ds.NumAS()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	ds.GroupByVP(&sc.byVP, recs)

	sc.asF = sanitize.Grow(sc.asF, nAS)
	sc.seen = sanitize.Grow(sc.seen, nAS)
	sc.counts = sanitize.Grow(sc.counts, nAS)
	sc.idsUsed = sc.idsUsed[:0]
	sc.pairIDs = sc.pairIDs[:0]
	sc.pairVals = sc.pairVals[:0]

	vpCount := 0
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
			vpCount++
			ft := float64(total)
			for _, id := range sc.touched {
				sc.pairIDs = append(sc.pairIDs, id)
				sc.pairVals = append(sc.pairVals, sc.asF[id]/ft)
				if sc.counts[id] == 0 {
					sc.idsUsed = append(sc.idsUsed, id)
				}
				sc.counts[id]++
			}
		}
		for _, id := range sc.touched { // restore the pool invariant
			sc.seen[id] = false
			sc.asF[id] = 0
		}
		sc.byVP.Cnt[v] = 0 // likewise
	}

	sc.offsets = sanitize.Grow(sc.offsets, nAS)
	var off int32
	for _, id := range sc.idsUsed {
		sc.offsets[id] = off
		off += sc.counts[id]
		sc.counts[id] = 0 // becomes the scatter cursor
	}
	sc.vals = sanitize.Grow(sc.vals, len(sc.pairVals))
	for k, id := range sc.pairIDs {
		sc.vals[sc.offsets[id]+sc.counts[id]] = sc.pairVals[k]
		sc.counts[id]++
	}

	s := Scores{CTI: make(map[asn.ASN]float64, len(sc.idsUsed)), VPCount: vpCount}
	for _, id := range sc.idsUsed {
		vs := sc.vals[sc.offsets[id]:][:sc.counts[id]]
		sort.Float64s(vs)
		s.CTI[ds.ASNOf[id]] = trimmedMeanSorted(vs, vpCount, trim)
		sc.counts[id] = 0 // restore the pool invariant
	}
	return s
}

// trimmedMeanSorted pads the sorted vals with zeros up to n (VPs that never
// saw the AS), trims floor(trim*n) entries from each end — one even from
// three, hegemony's small-view convention (Figure 2) — and averages the
// rest, with the zero padding left implicit; see the hegemony kernel for the
// bit-identity argument.
func trimmedMeanSorted(vals []float64, n int, trim float64) float64 {
	if n <= 0 {
		return 0
	}
	k := int(trim * float64(n))
	if k == 0 && trim > 0 && n >= 3 {
		k = 1
	}
	lo, hi := k, n-k
	if lo >= hi {
		lo, hi = 0, n
	}
	zeros := n - len(vals)
	start := lo - zeros
	if start < 0 {
		start = 0
	}
	end := hi - zeros
	if end < start {
		end = start
	}
	var sum float64
	for _, v := range vals[start:end] {
		sum += v
	}
	return sum / float64(hi-lo)
}
