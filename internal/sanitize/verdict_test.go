package sanitize

import (
	"net/netip"
	"reflect"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/geoloc"
	"countryrank/internal/netx"
	"countryrank/internal/routing"
	"countryrank/internal/vp"
)

// runPerRecord is Run's specification, one record at a time and with maps:
// Table 1's precedence spelled out as the switch the sanitizer started
// with, the accepted records' columns in stream order, and ASNs numbered as
// the accepted records' clean paths first show them.
func runPerRecord(col *routing.Collection, cfg Config) (stats Stats, recVP, recPrefix, recPath []int32, asnOf []asn.ASN) {
	seen := map[asn.ASN]bool{}
	for _, r := range col.Records {
		path := judgePath(col.Paths[r.Path], cfg)
		_, vpLocated := col.VPs.Country(int(r.VP))
		_, prefixLocated := cfg.GeoTable.Country(col.Prefixes[r.Prefix])
		reason := path.reason
		switch {
		case !col.Stable[r.Prefix]:
			reason = Unstable
		case reason != Accepted: // the path's own verdict stands
		case !vpLocated:
			reason = VPNoLocation
		case !prefixLocated:
			reason = PrefixNoLocation
		}
		stats.Total++
		stats.Counts[reason]++
		if reason != Accepted {
			continue
		}
		recVP, recPrefix, recPath = append(recVP, r.VP), append(recPrefix, r.Prefix), append(recPath, r.Path)
		for _, a := range path.clean {
			if !seen[a] {
				seen[a] = true
				asnOf = append(asnOf, a)
			}
		}
	}
	return
}

// TestRunMatchesPerRecordReference: over a hand-built collection holding
// every combination of a located or unlocated VP, a stable or unstable and
// located or unlocated prefix, and a path of every verdict — so every Reason
// occurs and up to four apply to one record (an unstable, unlocatable prefix
// on a looped path with an unallocated ASN from an unlocated VP) — plus the
// paths the pre-pass sets apart (named by no record, only from an unlocated
// VP, only on unstable prefixes), the record pass and the exactly-sized
// columns give the per-record reference's accounting, columns and id order,
// and the arena holds the accepted records' clean paths and nothing else.
func TestRunMatchesPerRecordReference(t *testing.T) {
	vps, err := vp.NewSet(
		[]vp.Collector{{Name: "us", Country: "US"}, {Name: "remote", MultiHop: true}, {Name: "au", Country: "AU"}},
		[]vp.VP{{Index: 0, Collector: "us"}, {Index: 1, Collector: "remote"}, {Index: 2, Collector: "au"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := judgeTestConfig()
	cfg.GeoTable = &geoloc.Table{ByPrefix: map[netip.Prefix]geoloc.PrefixGeo{}}
	col := &routing.Collection{VPs: vps, Days: 1}
	for _, pfx := range []struct {
		cidr   string
		stable bool
		geo    geoloc.FilterReason // NotFiltered: located in JP
		absent bool                // from the geolocation table altogether
	}{
		{cidr: "9.0.0.0/24", stable: true},
		{cidr: "9.0.1.0/24", stable: false},
		{cidr: "9.0.2.0/23", stable: true, geo: geoloc.NoConsensus},
		{cidr: "9.0.4.0/22", stable: false, geo: geoloc.CoveredByMoreSpecifics},
		{cidr: "9.0.8.0/24", stable: true, absent: true},
		{cidr: "9.0.9.0/24", stable: true},
	} {
		prefix := netx.MustPrefix(pfx.cidr)
		col.Prefixes = append(col.Prefixes, prefix)
		col.Origin = append(col.Origin, 30)
		col.Stable = append(col.Stable, pfx.stable)
		if !pfx.absent {
			cfg.GeoTable.ByPrefix[prefix] = geoloc.PrefixGeo{Prefix: prefix, Country: "JP", Reason: pfx.geo}
		}
	}
	col.Paths = []bgp.Path{
		{10, 20, 30},             // accepted as it is
		{10, 64512, 30},          // unallocated
		{10, 20, 10, 30},         // loop
		{1, 20, 2, 30},           // poisoned
		{11, 11, 31, 20, 30, 30}, // accepted, cleaned to a path of its own
		{10, 20, 10, 64512},      // a loop with an unallocated ASN: unallocated
		{31},                     // accepted, cleaned to nothing
		{12, 21, 30},             // accepted, used by no record
		{13, 20, 30},             // accepted, new ASN first seen late
		{15, 20, 15, 30},         // loop, named only from the unlocated VP
		{14, 20, 30},             // accepted, named only on unstable prefixes
	}
	for _, q := range []int32{4, 0, 1, 2, 3, 5, 6, 8, 0} { // path 0 twice: repeats share its storage
		for v := int32(0); v < 3; v++ {
			for p := range col.Prefixes {
				col.Records = append(col.Records, routing.Record{VP: v, Prefix: int32(p), Path: q})
			}
		}
	}
	// Two paths no record with a clean prefix and a clean VP names, so Run
	// keeps no clean form of them. The first's verdict still decides its
	// records' outcome — a loop outranks an unlocated VP — and the second
	// never shows: an unstable prefix outranks everything.
	col.Records = append(col.Records,
		routing.Record{VP: 1, Prefix: 0, Path: 9}, routing.Record{VP: 1, Prefix: 5, Path: 9},
		routing.Record{VP: 0, Prefix: 1, Path: 10}, routing.Record{VP: 2, Prefix: 3, Path: 10})

	stats, recVP, recPrefix, recPath, asnOf := runPerRecord(col, cfg)
	for r := Accepted; r < numReasons; r++ {
		if stats.Counts[r] == 0 {
			t.Fatalf("the collection never produces %v", r)
		}
	}
	ds := Run(col, cfg)
	if ds.Stats != stats {
		t.Errorf("Stats = %+v, the per-record reference counts %+v", ds.Stats, stats)
	}
	if loops := 4*3 + 2; stats.Counts[Loop] != loops { // path 2 on four stable prefixes from three VPs, and path 9's two
		t.Errorf("the reference counts %d loops, want %d", stats.Counts[Loop], loops)
	}
	// The arena holds the clean form of each path an accepted record names,
	// once, and nothing else: not path 7 (no record), 9, 10 or any rejected
	// path, and nothing for path 6, which cleans to nothing.
	hops, named := 0, map[int32]bool{}
	for _, q := range recPath {
		if !named[q] {
			named[q] = true
			hops += len(judgePath(col.Paths[q], cfg).clean)
		}
	}
	if !named[6] || named[7] || named[9] || named[10] {
		t.Fatalf("the reference's accepted records name paths %v", named)
	}
	if len(ds.cleanHops) != hops || len(ds.idHops) != hops {
		t.Errorf("arenas hold %d/%d hops, the accepted records' paths clean to %d", len(ds.cleanHops), len(ds.idHops), hops)
	}
	for q := range col.Paths {
		if want := judgePath(col.Paths[q], cfg).clean; named[int32(q)] && !ds.CleanPath(q).Equal(want) {
			t.Errorf("CleanPath(%d) = %v, want %v", q, ds.CleanPath(q), want)
		} else if !named[int32(q)] && len(ds.CleanPath(q)) != 0 {
			t.Errorf("CleanPath(%d) = %v for a path no accepted record names", q, ds.CleanPath(q))
		}
	}
	if ds.Len() != len(recVP) {
		t.Fatalf("Len() = %d, the reference accepts %d", ds.Len(), len(recVP))
	}
	for name, column := range map[string][2][]int32{
		"recVP": {ds.recVP, recVP}, "recPrefix": {ds.recPrefix, recPrefix}, "recPath": {ds.recPath, recPath},
	} {
		if !reflect.DeepEqual(column[0], column[1]) {
			t.Errorf("%s = %v, want %v", name, column[0], column[1])
		}
	}
	if !reflect.DeepEqual(ds.ASNOf, asnOf) {
		t.Errorf("ASNOf = %v, first appearance over the accepted records is %v", ds.ASNOf, asnOf)
	}
	// Each column is exactly as long as the accepted count and cannot grow
	// into its neighbour in their shared allocation.
	if n := ds.Len(); cap(ds.recVP) != n || cap(ds.recPrefix) != n || cap(ds.recPath) != n {
		t.Errorf("column capacities %d/%d/%d, want %d each", cap(ds.recVP), cap(ds.recPrefix), cap(ds.recPath), n)
	}

	// NewDataset takes the same route with nothing to reject.
	all := NewDataset(col, ds.VPCountry, ds.PrefixCountry)
	if all.Len() != len(col.Records) || all.Stats.Total != len(col.Records) || all.Stats.Counts[Accepted] != len(col.Records) {
		t.Errorf("NewDataset accepts %d of %d records (Stats %+v)", all.Len(), len(col.Records), all.Stats)
	}
}
