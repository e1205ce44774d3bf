package cone

import (
	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/relation"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

// computeMapRef is the original ASN-keyed map implementation, retained as
// the executable specification ComputeFrom and ASCounts are property-tested
// against.
func computeMapRef(ds *sanitize.Dataset, recs []int32, rels relation.Oracle) (Scores, map[asn.ASN]int) {
	// conePrefixes[a] tracks distinct prefix indexes per AS; coneASes[a]
	// tracks the distinct downstream ASes (cone membership).
	conePrefixes := map[asn.ASN]map[int32]struct{}{}
	coneASes := map[asn.ASN]map[asn.ASN]struct{}{}
	seenPrefix := map[int32]struct{}{}

	each(ds, recs, func(i int) {
		_, pfxIdx, path := ds.Record(i)
		seenPrefix[pfxIdx] = struct{}{}
		start := chainStartRef(path, rels)
		if start < 0 {
			return
		}
		// See Compute: a broken chain keeps only the origin in scope.
		for j := start; j+1 < len(path); j++ {
			if rels.Rel(path[j], path[j+1]) != topology.RelP2C {
				start = len(path) - 1
				break
			}
		}
		for j := start; j < len(path); j++ {
			set := conePrefixes[path[j]]
			if set == nil {
				set = map[int32]struct{}{}
				conePrefixes[path[j]] = set
			}
			set[pfxIdx] = struct{}{}
			members := coneASes[path[j]]
			if members == nil {
				members = map[asn.ASN]struct{}{}
				coneASes[path[j]] = members
			}
			for k := j; k < len(path); k++ {
				members[path[k]] = struct{}{}
			}
		}
	})

	s := Scores{Addresses: make(map[asn.ASN]uint64, len(conePrefixes))}
	asCounts := make(map[asn.ASN]int, len(coneASes))
	for p := range seenPrefix {
		s.Total += ds.Weight[p]
	}
	for a, set := range conePrefixes {
		var sum uint64
		for p := range set {
			sum += ds.Weight[p]
		}
		s.Addresses[a] = sum
	}
	for a, members := range coneASes {
		asCounts[a] = len(members)
	}
	return s, asCounts
}

// chainStartRef is chainStart over the path's ASNs, asking the oracle itself.
func chainStartRef(path bgp.Path, rels relation.Oracle) int {
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
