// Package metrictest provides hand-construction helpers for metric-package
// tests: tiny datasets with explicit (VP, prefix, path) records, bypassing
// the world generator.
package metrictest

import (
	"net/netip"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/countries"
	"countryrank/internal/netx"
	"countryrank/internal/routing"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

// Rec declares one observation.
type Rec struct {
	VP            int
	Prefix        string
	PrefixCountry countries.Code
	Path          []uint32
}

// Dataset builds a fully-accepted dataset from explicit records.
// vpCountries assigns each VP index a country.
func Dataset(vpCountries []countries.Code, recs []Rec) *sanitize.Dataset {
	col := &routing.Collection{Days: 1}
	pfxIdx := map[netip.Prefix]int32{}
	var prefixCountry []countries.Code
	for _, r := range recs {
		pfx := netx.MustPrefix(r.Prefix)
		pi, ok := pfxIdx[pfx]
		if !ok {
			pi = int32(len(col.Prefixes))
			pfxIdx[pfx] = pi
			col.Prefixes = append(col.Prefixes, pfx)
			path := toPath(r.Path)
			origin, _ := path.Origin()
			col.Origin = append(col.Origin, origin)
			prefixCountry = append(prefixCountry, r.PrefixCountry)
			col.Stable = append(col.Stable, true)
		}
		col.Records = append(col.Records, routing.Record{
			VP:     int32(r.VP),
			Prefix: pi,
			Path:   int32(len(col.Paths)),
		})
		col.Paths = append(col.Paths, toPath(r.Path))
	}
	return sanitize.NewDataset(col, vpCountries, prefixCountry)
}

func toPath(p []uint32) bgp.Path {
	out := make(bgp.Path, len(p))
	for i, a := range p {
		out[i] = asn.ASN(a)
	}
	return out
}

// Rels is a literal relationship oracle for tests: P2C entries are
// [provider, customer]; P2P entries are unordered pairs.
type Rels struct {
	P2C [][2]uint32
	P2P [][2]uint32
}

// Rel implements relation.Oracle.
func (r Rels) Rel(a, b asn.ASN) topology.Rel {
	for _, e := range r.P2C {
		if asn.ASN(e[0]) == a && asn.ASN(e[1]) == b {
			return topology.RelP2C
		}
		if asn.ASN(e[0]) == b && asn.ASN(e[1]) == a {
			return topology.RelC2P
		}
	}
	for _, e := range r.P2P {
		if (asn.ASN(e[0]) == a && asn.ASN(e[1]) == b) || (asn.ASN(e[0]) == b && asn.ASN(e[1]) == a) {
			return topology.RelP2P
		}
	}
	return topology.RelNone
}

// VPRuns splits a view — accepted-record positions of ds, nil meaning every
// record — by vantage point: one run per VP, VPs in first-appearance order
// (the positions hegemony.PerVP and cone.Witnesses number them by), each
// run keeping the view's record order.
func VPRuns(ds *sanitize.Dataset, recs []int32) [][]int32 {
	pos := map[int32]int{}
	var runs [][]int32
	add := func(i int32) {
		vp, _, _ := ds.RecordIDs(int(i))
		p, ok := pos[vp]
		if !ok {
			p = len(runs)
			pos[vp] = p
			runs = append(runs, nil)
		}
		runs[p] = append(runs[p], i)
	}
	if recs == nil {
		for i := 0; i < ds.Len(); i++ {
			add(int32(i))
		}
	}
	for _, i := range recs {
		add(i)
	}
	return runs
}

// RecordsOf concatenates the runs at the given positions, in that order:
// the view restricted to those VPs. Never nil, since the metric packages
// read a nil record list as "every record".
func RecordsOf(runs [][]int32, sel []int32) []int32 {
	out := []int32{}
	for _, p := range sel {
		out = append(out, runs[p]...)
	}
	return out
}
