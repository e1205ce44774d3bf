package hegemony

import (
	"sort"

	"countryrank/internal/asn"
	"countryrank/internal/sanitize"
)

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
