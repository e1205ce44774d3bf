// Package hegemony implements the AS hegemony metric (§1.2, Figure 2): the
// likelihood that an AS lies on a path toward a set of prefixes. For each
// vantage point, every AS gets the address-weighted fraction of the VP's
// paths that contain it; the final score is the mean of the per-VP values
// after trimming the top and bottom 10%, which damps the bias of VPs that
// are topologically very near or very far from the AS.
package hegemony

import (
	"sort"
	"sync"

	"countryrank/internal/asn"
	"countryrank/internal/sanitize"
)

// DefaultTrim is the fraction trimmed from each end of the per-VP score
// distribution, following Fontugne et al.
const DefaultTrim = 0.10

// Scores holds hegemony values in [0, 1] per AS.
type Scores struct {
	Hegemony map[asn.ASN]float64
	// VPCount is the number of vantage points contributing to the view;
	// each AS's score averages over all of them (zeros included).
	VPCount int
}

// Value returns a's hegemony (0 when unseen).
func (s Scores) Value(a asn.ASN) float64 { return s.Hegemony[a] }

// scratch is the reusable flat working state of the dense kernel. All
// slices are indexed by the dataset's dense ids (or VP indexes) and sized
// lazily; the pool keeps them across calls so steady-state Compute does not
// allocate per-VP maps. Nothing in it escapes Compute.
//
// Pool invariant: byVP.Cnt is all-zero, seen all-false, asW and counts
// all-zero between calls; every write is undone via the byVP.Used/touched/
// idsUsed dirty lists. That keeps each call O(records + touched entries)
// rather than O(total ASes + total VPs), which matters for stability trials
// over tiny VP subsets.
type scratch struct {
	// byVP groups the record positions by VP, record order kept inside a VP.
	byVP     sanitize.Groups
	asW      []uint64 // per AS id: weight containing it, for the current VP
	seen     []bool   // per AS id: marker for the current VP
	touched  []int32  // AS ids touched by the current VP
	counts   []int32  // per AS id: contributing VPs (then scatter cursor)
	idsUsed  []int32  // AS ids scored by any VP this call
	offsets  []int32  // per AS id: start into vals (used ids only)
	pairIDs  []int32  // (id, value) pairs in VP-major order
	pairVals []float64
	vals     []float64 // per-AS value lists after counting-sort
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Compute calculates hegemony over the given accepted-record positions of
// ds (nil means every record). trim is the per-side trim fraction; negative
// values select DefaultTrim, zero disables trimming (the ablation case).
//
// The kernel accumulates into flat dense-id slices drawn from a pool; its
// result is bit-identical to the retained map-based reference
// (computeMapRef), which the property tests enforce.
func Compute(ds *sanitize.Dataset, recs []int32, trim float64) Scores {
	if trim < 0 {
		trim = DefaultTrim
	}
	nAS := ds.NumAS()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	ds.GroupByVP(&sc.byVP, recs)

	// Per-VP accumulation over the VP's bucket: asW[id] is the weight of
	// the VP's paths containing id. The per-AS value lists end up sorted
	// before summing, so visiting VPs in first-appearance order (not VP
	// index order) still reproduces the reference bit for bit.
	sc.asW = sanitize.Grow(sc.asW, nAS)
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
			// Count each AS once per path even if prepending survived.
			var last int32 = -1
			for j, id := range ids {
				if j > 0 && id == last {
					continue
				}
				if !sc.seen[id] {
					sc.seen[id] = true
					sc.asW[id] = 0
					sc.touched = append(sc.touched, id)
				}
				sc.asW[id] += w
				last = id
			}
		}
		if total > 0 {
			vpCount++
			ft := float64(total)
			for _, id := range sc.touched {
				sc.pairIDs = append(sc.pairIDs, id)
				sc.pairVals = append(sc.pairVals, float64(sc.asW[id])/ft)
				if sc.counts[id] == 0 {
					sc.idsUsed = append(sc.idsUsed, id)
				}
				sc.counts[id]++
			}
		}
		for _, id := range sc.touched { // restore the pool invariant
			sc.seen[id] = false
			sc.asW[id] = 0
		}
		sc.byVP.Cnt[v] = 0 // likewise
	}

	// Counting-sort the (id, value) pairs into per-AS value runs.
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

	s := Scores{Hegemony: make(map[asn.ASN]float64, len(sc.idsUsed)), VPCount: vpCount}
	for _, id := range sc.idsUsed {
		vs := sc.vals[sc.offsets[id]:][:sc.counts[id]]
		sort.Float64s(vs)
		s.Hegemony[ds.ASNOf[id]] = trimmedMeanSorted(vs, vpCount, trim)
		sc.counts[id] = 0 // restore the pool invariant
	}
	return s
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

// computeMapRef is the original ASN-keyed map implementation, retained as
// the executable specification the dense kernel is property-tested against.
func computeMapRef(ds *sanitize.Dataset, recs []int32, trim float64) Scores {
	if trim < 0 {
		trim = DefaultTrim
	}

	// Per-VP accumulation. VP indexes are dense and small.
	nVP := len(ds.VPCountry)
	totals := make([]uint64, nVP)            // total path weight per VP
	perVP := make([]map[asn.ASN]uint64, nVP) // per VP, per AS, weight containing it

	each(ds, recs, func(i int) {
		vpIdx, pfxIdx, path := ds.Record(i)
		w := ds.Weight[pfxIdx]
		totals[vpIdx] += w
		m := perVP[vpIdx]
		if m == nil {
			m = map[asn.ASN]uint64{}
			perVP[vpIdx] = m
		}
		// Count each AS once per path even if prepending survived.
		var last asn.ASN
		for j, a := range path {
			if j > 0 && a == last {
				continue
			}
			m[a] += w
			last = a
		}
	})

	// Gather the contributing VPs and per-AS value lists.
	var vps []int
	for v := 0; v < nVP; v++ {
		if totals[v] > 0 {
			vps = append(vps, v)
		}
	}
	values := map[asn.ASN][]float64{}
	for _, v := range vps {
		for a, w := range perVP[v] {
			values[a] = append(values[a], float64(w)/float64(totals[v]))
		}
	}

	s := Scores{Hegemony: make(map[asn.ASN]float64, len(values)), VPCount: len(vps)}
	for a, vals := range values {
		s.Hegemony[a] = trimmedMean(vals, len(vps), trim)
	}
	return s
}

// trimmedMean pads vals with zeros up to n (VPs that never saw the AS),
// sorts, trims floor(trim*n) entries from each end, and averages the rest.
func trimmedMean(vals []float64, n int, trim float64) float64 {
	if n <= 0 {
		return 0
	}
	padded := make([]float64, n)
	copy(padded, vals)
	sort.Float64s(padded)
	k := int(trim * float64(n))
	if k == 0 && trim > 0 && n >= 3 {
		// Figure 2's worked example drops one value from each end even with
		// only three VPs; follow that convention for small views.
		k = 1
	}
	lo, hi := k, n-k
	if lo >= hi {
		// Degenerate tiny-VP case: fall back to the plain mean.
		lo, hi = 0, n
	}
	var sum float64
	for _, v := range padded[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// trimmedMeanSorted is trimmedMean over an already-sorted value list whose
// zero padding up to n entries stays implicit: the padded distribution is
// (n - len(vals)) zeros followed by vals. Summing in padded order keeps the
// float result bit-identical to trimmedMean (leading zeros add exactly
// nothing), without materializing the pad.
func trimmedMeanSorted(vals []float64, n int, trim float64) float64 {
	if n <= 0 {
		return 0
	}
	k := int(trim * float64(n))
	if k == 0 && trim > 0 && n >= 3 {
		// Figure 2's small-view convention, as in trimmedMean.
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
		end = start // the kept window is all implicit zeros
	}
	var sum float64
	for _, v := range vals[start:end] {
		sum += v
	}
	return sum / float64(hi-lo)
}
