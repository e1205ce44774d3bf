package ihr

import (
	"countryrank/internal/asn"
	"countryrank/internal/countries"
	"countryrank/internal/hegemony"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

// computeMapRef is the original sequential map-based implementation,
// retained as the executable specification ComputeWeighted is
// property-tested against. Origins merge in ascending order, the same
// fixed float-accumulation order the parallel version uses.
func computeMapRef(ds *sanitize.Dataset, ases topology.ASes, country countries.Code, trim float64, weighting Weighting) Scores {
	groups := groupQualifyingOrigins(ds, ases, country, weighting)
	sum := map[asn.ASN]float64{}
	var totalWeight float64
	for _, grp := range groups {
		totalWeight += grp.w
		hs := hegemony.Compute(ds, grp.recs, trim)
		for a, v := range hs.Hegemony {
			sum[a] += grp.w * v
		}
	}
	s := Scores{AHC: make(map[asn.ASN]float64, len(sum)), Origins: len(groups)}
	if totalWeight == 0 {
		return s
	}
	for a, v := range sum {
		s.AHC[a] = v / totalWeight
	}
	return s
}
