// Package ihr reimplements the Internet Health Report's simplified
// country-level hegemony baseline, AHC (§1.2.1): AS hegemony is computed
// per *origin AS* over all vantage points, and a country's score for AS a
// is the unweighted mean of a's per-origin hegemony across the origin ASes
// *registered* in that country — regardless of where those ASes' prefixes
// geolocate, which is exactly the imprecision (§5.1.2's Amazon example) the
// paper's prefix-based metrics fix.
package ihr

import (
	"sort"

	"countryrank/internal/asn"
	"countryrank/internal/countries"
	"countryrank/internal/hegemony"
	"countryrank/internal/par"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

// Scores holds AHC values per AS for one country.
type Scores struct {
	AHC map[asn.ASN]float64
	// Origins is the number of origin ASes registered in the country that
	// the mean runs over.
	Origins int
}

// Weighting selects how per-origin hegemony values aggregate into the
// country score. IHR publishes both variants (§1.2.1); the paper uses the
// AS-count weighting because its focus is infrastructure, not population.
type Weighting uint8

const (
	// ByASCount weights every origin AS equally (the paper's choice).
	ByASCount Weighting = iota
	// ByUsers weights each origin AS by its estimated user population
	// (IHR's APNIC-derived variant).
	ByUsers
)

// Compute calculates AHC for one country over all accepted records with
// equal per-AS weights. trim follows hegemony.Compute semantics.
func Compute(ds *sanitize.Dataset, ases topology.ASes, country countries.Code, trim float64) Scores {
	return ComputeWeighted(ds, ases, country, trim, ByASCount)
}

// originGroup is one qualifying origin AS's record subset and weight.
type originGroup struct {
	origin asn.ASN
	recs   []int32
	w      float64
}

// groupQualifyingOrigins buckets the accepted records by origin AS, keeps
// the origins registered in country (with a positive weight under the
// chosen weighting), and returns the groups in ascending origin order so
// every later float accumulation has a fixed order.
func groupQualifyingOrigins(ds *sanitize.Dataset, ases topology.ASes, country countries.Code, weighting Weighting) []originGroup {
	byOrigin := map[asn.ASN][]int32{}
	for i := 0; i < ds.Len(); i++ {
		_, pfxIdx, _ := ds.Record(i)
		o := ds.Col.Origin[pfxIdx]
		byOrigin[o] = append(byOrigin[o], int32(i))
	}
	var groups []originGroup
	for o, recs := range byOrigin {
		node, ok := ases.ByASN(o)
		if !ok || node.Registered != country {
			continue
		}
		w := 1.0
		if weighting == ByUsers {
			w = float64(node.Users)
			if w <= 0 {
				continue
			}
		}
		groups = append(groups, originGroup{o, recs, w})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].origin < groups[j].origin })
	return groups
}

// ComputeWeighted calculates AHC with the chosen origin weighting. The
// per-origin hegemony computations fan out over a bounded worker pool and
// merge into one sum per AS in ascending origin order, so the result is
// deterministic and bit-identical to the sequential map-based
// reference the property tests keep (reference_test.go).
func ComputeWeighted(ds *sanitize.Dataset, ases topology.ASes, country countries.Code, trim float64, weighting Weighting) Scores {
	groups := groupQualifyingOrigins(ds, ases, country, weighting)
	perOrigin := make([]hegemony.Scores, len(groups))
	par.ForEach(len(groups), func(i int) {
		perOrigin[i] = hegemony.Compute(ds, groups[i].recs, trim)
	})

	s := Scores{AHC: map[asn.ASN]float64{}, Origins: len(groups)}
	var totalWeight float64
	for i, grp := range groups {
		totalWeight += grp.w
		for a, v := range perOrigin[i].Hegemony {
			s.AHC[a] += grp.w * v
		}
	}
	for a := range s.AHC { // no entry without a group, and every group weighs > 0
		s.AHC[a] /= totalWeight
	}
	return s
}
