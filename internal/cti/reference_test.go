package cti

import (
	"sort"

	"countryrank/internal/asn"
	"countryrank/internal/relation"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
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
func computeMapRef(ds *sanitize.Dataset, recs []int32, rels relation.Oracle, trim float64) Scores {
	if trim < 0 {
		trim = 0.10
	}
	nVP := len(ds.VPCountry)
	totals := make([]uint64, nVP)
	perVP := make([]map[asn.ASN]float64, nVP)

	each(ds, recs, func(i int) {
		vpIdx, pfxIdx, path := ds.Record(i)
		w := ds.Weight[pfxIdx]
		totals[vpIdx] += w
		m := perVP[vpIdx]
		if m == nil {
			m = map[asn.ASN]float64{}
			perVP[vpIdx] = m
		}
		for j := len(path) - 2; j >= 0; j-- {
			if rels.Rel(path[j], path[j+1]) != topology.RelP2C {
				break
			}
			k := len(path) - 1 - j
			m[path[j]] += float64(w) / float64(k)
		}
	})

	var vps []int
	for v := 0; v < nVP; v++ {
		if totals[v] > 0 {
			vps = append(vps, v)
		}
	}
	values := map[asn.ASN][]float64{}
	for _, v := range vps {
		for a, sc := range perVP[v] {
			values[a] = append(values[a], sc/float64(totals[v]))
		}
	}
	s := Scores{CTI: make(map[asn.ASN]float64, len(values)), VPCount: len(vps)}
	for a, vals := range values {
		s.CTI[a] = trimmedMean(vals, len(vps), trim)
	}
	return s
}

func trimmedMean(vals []float64, n int, trim float64) float64 {
	if n <= 0 {
		return 0
	}
	padded := make([]float64, n)
	copy(padded, vals)
	sort.Float64s(padded)
	k := int(trim * float64(n))
	if k == 0 && trim > 0 && n >= 3 {
		k = 1 // same small-view convention as hegemony (Figure 2)
	}
	lo, hi := k, n-k
	if lo >= hi {
		lo, hi = 0, n
	}
	var sum float64
	for _, v := range padded[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}
