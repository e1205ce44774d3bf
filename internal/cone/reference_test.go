package cone

import (
	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/relation"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

// computeMapRef is the original ASN-keyed map implementation, retained as
// the executable specification ComputeFrom is property-tested against.
func computeMapRef(ds *sanitize.Dataset, recs []int32, rels relation.Oracle) Scores {
	// conePrefixes[a] tracks distinct prefix indexes per AS.
	conePrefixes := map[asn.ASN]map[int32]struct{}{}
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
		}
	})

	s := Scores{Addresses: make(map[asn.ASN]uint64, len(conePrefixes))}
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
	return s
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
