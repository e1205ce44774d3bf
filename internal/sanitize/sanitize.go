// Package sanitize implements the path filtering pipeline of §3.1 and
// Table 1: before any metric is computed, every (VP, prefix, AS path)
// record is checked for day-to-day stability, unallocated ASNs, loops,
// path poisoning, and the geolocatability of both its vantage point and its
// prefix. Accepted paths are cleaned by removing IXP route-server ASNs and
// collapsing prepending.
package sanitize

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/countries"
	"countryrank/internal/geoloc"
	"countryrank/internal/netx"
	"countryrank/internal/obs"
	"countryrank/internal/routing"
)

// The two ends of the Table-1 accounting a scrape shows; the per-Reason
// drop profile is Stats, which the manifest carries as sanitize_drops.
var (
	mRecords = obs.NewCounter("countryrank_sanitize_records_total",
		"records examined by the sanitizer")
	mAccepted = obs.NewCounter("countryrank_sanitize_accepted_total",
		"records accepted by the sanitizer")
)

// Reason classifies a record's filtering outcome, mirroring Table 1's rows.
type Reason uint8

const (
	// Accepted records feed the metrics.
	Accepted Reason = iota
	// Unstable: the prefix was not seen in all daily RIBs.
	Unstable
	// Unallocated: the path contains an ASN IANA reports as unassigned.
	Unallocated
	// Loop: the path contains non-adjacent duplicate ASNs.
	Loop
	// Poisoned: a non-top-tier AS appears between two top-tier ASes.
	Poisoned
	// VPNoLocation: the VP peers with a multi-hop collector.
	VPNoLocation
	// PrefixNoLocation: the prefix geolocated to no or multiple countries.
	PrefixNoLocation

	numReasons
)

func (r Reason) String() string {
	switch r {
	case Accepted:
		return "accepted"
	case Unstable:
		return "unstable"
	case Unallocated:
		return "unallocated"
	case Loop:
		return "loop"
	case Poisoned:
		return "poisoned"
	case VPNoLocation:
		return "VP no location"
	case PrefixNoLocation:
		return "prefix no location"
	}
	return fmt.Sprintf("Reason(%d)", r)
}

// Stats is the Table 1 accounting: record counts per filter reason.
type Stats struct {
	Counts [numReasons]int
	Total  int
}

// Rejected returns the count of non-accepted records.
func (s Stats) Rejected() int { return s.Total - s.Counts[Accepted] }

// Drops converts the accounting to its run-manifest form: total/accepted/
// rejected plus the per-reason drop counts keyed by Reason name.
func (s Stats) Drops() obs.DropStats {
	d := obs.DropStats{
		Total:    s.Total,
		Accepted: s.Counts[Accepted],
		Rejected: s.Rejected(),
		ByReason: make(map[string]int, int(numReasons)-1),
	}
	for r := Unstable; r < numReasons; r++ {
		d.ByReason[r.String()] = s.Counts[r]
	}
	return d
}

// Pct returns the percentage of all records with the given reason.
func (s Stats) Pct(r Reason) float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.Counts[r]) / float64(s.Total)
}

// Render formats the stats as the paper's Table 1. An empty accounting
// (Total == 0) renders every percentage as 0 — without the guard the
// "rejected" and "total" rows would claim 100% of zero records.
func (s Stats) Render() string {
	rejectedPct, totalPct := 0.0, 0.0
	if s.Total > 0 {
		rejectedPct = 100 - s.Pct(Accepted)
		totalPct = 100.0
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12d %7.2f%%\n", "rejected", s.Rejected(), rejectedPct)
	for _, r := range []Reason{Unstable, Unallocated, Loop, Poisoned, VPNoLocation, PrefixNoLocation} {
		fmt.Fprintf(&b, "  %-20s %12d %7.2f%%\n", r.String(), s.Counts[r], s.Pct(r))
	}
	fmt.Fprintf(&b, "%-22s %12d %7.2f%%\n", "accepted", s.Counts[Accepted], s.Pct(Accepted))
	fmt.Fprintf(&b, "%-22s %12d %7.2f%%\n", "total", s.Total, totalPct)
	return b.String()
}

// Config provides the sanitizer's external knowledge.
type Config struct {
	// Clique is the set of top-tier ASes used for poisoning detection.
	Clique map[asn.ASN]bool
	// Registry reports which ASNs are allocated.
	Registry *asn.Registry
	// RouteServers are removed from accepted paths.
	RouteServers map[asn.ASN]bool
	// GeoTable assigns countries to announced prefixes (§3.2.1); prefixes
	// it filtered become PrefixNoLocation rejects.
	GeoTable *geoloc.Table
}

// Dataset is the sanitized view of a collection: the accepted records with
// cleaned paths and resolved countries, plus the Table 1 accounting. It is
// the input to every ranking metric. It keeps the collection's prefix table
// and no more: the records and paths it was built from are not reachable
// through it.
type Dataset struct {
	// Prefixes and Origin are the collection's prefix table: Prefixes[p] is
	// prefix p, announced by Origin[p].
	Prefixes []netip.Prefix
	Origin   []asn.ASN
	// recVP / recPrefix / recPath are the accepted records' VP, prefix and
	// collection-path columns in canonical record order. The three share
	// one allocation, each capped at the accepted count.
	recVP     []int32
	recPrefix []int32
	recPath   []int32
	// VPCountry[v] is VP v's country, or "" when unlocatable.
	VPCountry []countries.Code
	// PrefixCountry[p] is prefix p's country, or "" when filtered.
	PrefixCountry []countries.Code
	// Weight[p] is the address weight of prefix p.
	Weight []uint64
	Stats  Stats

	// Dense AS-id interner, built once after filtering: every ASN that
	// appears on a clean path gets a small id in first-appearance order, so
	// the metric kernels can accumulate into flat slices indexed by id
	// instead of ASN-keyed maps.
	//
	// ASNOf[id] resolves an id back to its ASN.
	ASNOf []asn.ASN

	// Clean paths are stored once per collection path, not per record:
	// clean's path q is collection path q's clean form (after route-server
	// removal and prepend collapsing), empty when no accepted record uses
	// it, and idHops holds its dense ids hop for hop, at the same offsets.
	// The clean form is a pure function of (collection path q, Config), so
	// anything derived from it alone can be computed once per path index (see
	// PathIndex).
	clean  bgp.Paths
	idHops []int32
}

// NewDataset wraps a collection directly into a Dataset without filtering:
// every record is accepted with its path as-is. Use it for already-clean
// inputs (tests, externally sanitized MRT imports); vpCountry and
// prefixCountry must be indexed like the collection's VPs and prefixes.
func NewDataset(col *routing.Collection, vpCountry, prefixCountry []countries.Code) *Dataset {
	ds := &Dataset{
		Prefixes:      col.Prefixes,
		Origin:        col.Origin,
		VPCountry:     vpCountry,
		PrefixCountry: prefixCountry,
		Weight:        make([]uint64, len(col.Prefixes)),
	}
	for p, pfx := range col.Prefixes {
		ds.Weight[p] = netx.AddressWeight(pfx)
	}
	ds.fill(col, verdicts{ // all zero: Accepted
		byPrefix: make([]Reason, len(col.Prefixes)),
		byPath:   make([]Reason, col.NumPaths()),
		byVP:     make([]Reason, len(vpCountry)),
	}, nil)
	return ds
}

// verdicts holds what decides a record's outcome, one byte per prefix, per
// collection path and per VP: Accepted, or the reason that part of the
// record gives for rejecting it.
type verdicts struct {
	byPrefix []Reason // Unstable, else PrefixNoLocation
	byPath   []Reason // Unallocated, Loop or Poisoned
	byVP     []Reason // VPNoLocation
}

// of returns r's outcome: the lowest-numbered reason among its three parts,
// Accepted when none has one. Reason's numbering is Table 1's precedence
// (unstable > path verdict > VP > prefix); Accepted is 0, so each byte is
// shifted down by one — Accepted wraps to the largest — and the minimum
// shifted back.
func (v verdicts) of(r routing.Record) Reason {
	return min(v.byPrefix[r.Prefix]-1, v.byPath[r.Path]-1, v.byVP[r.VP]-1) + 1
}

// Run sanitizes the collection.
func Run(col *routing.Collection, cfg Config) *Dataset {
	ds := &Dataset{
		Prefixes:      col.Prefixes,
		Origin:        col.Origin,
		VPCountry:     make([]countries.Code, col.VPs.Len()),
		PrefixCountry: make([]countries.Code, len(col.Prefixes)),
		Weight:        make([]uint64, len(col.Prefixes)),
	}
	v := verdicts{
		byPrefix: make([]Reason, len(col.Prefixes)),
		byPath:   make([]Reason, col.NumPaths()),
		byVP:     make([]Reason, len(ds.VPCountry)),
	}
	for i := range ds.VPCountry {
		if c, ok := col.VPs.Country(i); ok {
			ds.VPCountry[i] = c
		} else {
			v.byVP[i] = VPNoLocation
		}
	}
	for p, pfx := range col.Prefixes {
		ds.Weight[p] = netx.AddressWeight(pfx)
		if cfg.GeoTable != nil {
			if c, ok := cfg.GeoTable.Country(pfx); ok {
				ds.PrefixCountry[p] = c
			}
		}
		switch {
		case !col.Stable[p]:
			v.byPrefix[p] = Unstable
		case ds.PrefixCountry[p] == "":
			v.byPrefix[p] = PrefixNoLocation
		}
	}

	ds.fill(col, v, newJudge(cfg))
	mRecords.Add(int64(ds.Stats.Total))
	mAccepted.Add(int64(ds.Stats.Counts[Accepted]))
	return ds
}

// fill reads col's records twice and its paths once. A pre-pass marks the
// paths some record with a clean prefix and a clean VP names — the only ones
// whose clean form anything can read — and bounds the accepted
// count and the arena. Each collection path is then judged once (j nil:
// accepted as it is), however many records it backs, and a marked path's
// clean form appended to the arena while the judge still holds it; a
// rejected path's is empty. The second record pass counts outcomes into
// Stats and copies the accepted records into the columns together. Last,
// dense ids go to the ASNs on the arena's paths in first-appearance order
// over the accepted records, so they are deterministic for a fixed
// collection; a path index met again contributes no new ASN, so resolving
// each path only at its first record gives the ids resolving every record
// would.
func (d *Dataset) fill(col *routing.Collection, v verdicts, j *judge) {
	recs, nPaths := col.Records, col.NumPaths()
	pending := make([]bool, nPaths) // marked, ids not yet resolved
	bound, hops := 0, 0
	for _, r := range recs {
		if v.byPrefix[r.Prefix]|v.byVP[r.VP] != Accepted {
			continue
		}
		bound++
		if !pending[r.Path] {
			pending[r.Path] = true
			hops += len(col.Path(r.Path)) // cleaning only shortens
		}
	}

	d.clean.Grow(nPaths, hops)
	for q := range nPaths {
		p := col.Path(int32(q))
		if j != nil {
			v.byPath[q], p = j.judge(p)
		}
		if !pending[q] {
			p = nil
		}
		d.clean.AppendPath(p)
	}

	cols := make([]int32, 3*bound)
	recVP, recPrefix, recPath := cols[:bound], cols[bound:2*bound], cols[2*bound:]
	n := 0
	for _, r := range recs {
		reason := v.of(r)
		d.Stats.Counts[reason]++
		if reason == Accepted {
			recVP[n], recPrefix[n], recPath[n] = r.VP, r.Prefix, r.Path
			n++
		}
	}
	d.Stats.Total = len(recs)
	d.recVP, d.recPrefix, d.recPath = recVP[:n:n], recPrefix[:n:n], recPath[:n:n]

	// idOf holds id+1, so 0 reads "no id yet". It gets a page only for ASNs
	// on accepted paths, which under a Config with a registry are allocated
	// ones: input cannot size it beyond the registry's pages.
	var idOf asn.Table[int32]
	d.idHops = make([]int32, len(d.clean.Hops))
	for _, q := range d.recPath {
		if !pending[q] {
			continue
		}
		pending[q] = false
		ids := d.PathIDs(int(q))
		for k, a := range d.CleanPath(int(q)) {
			id := idOf.At(a)
			if *id == 0 {
				d.ASNOf = append(d.ASNOf, a)
				*id = int32(len(d.ASNOf))
			}
			ids[k] = *id - 1
		}
	}
}

// NumAS returns the number of distinct interned ASNs.
func (d *Dataset) NumAS() int { return len(d.ASNOf) }

// Len returns the number of accepted records.
func (d *Dataset) Len() int { return len(d.recVP) }

// Record returns the i-th accepted record's essentials. The path aliases
// the shared per-path arena: records with one PathIndex return the same
// slice, and callers must not mutate it.
func (d *Dataset) Record(i int) (vpIdx int32, prefixIdx int32, path bgp.Path) {
	return d.recVP[i], d.recPrefix[i], d.CleanPath(int(d.recPath[i]))
}

// RecordIDs is Record with the path resolved to dense ids, aliased likewise.
func (d *Dataset) RecordIDs(i int) (vpIdx int32, prefixIdx int32, ids []int32) {
	return d.recVP[i], d.recPrefix[i], d.PathIDs(int(d.recPath[i]))
}

// VPIndex returns accepted record i's vantage point index.
func (d *Dataset) VPIndex(i int) int32 { return d.recVP[i] }

// PrefixIndex returns accepted record i's prefix index.
func (d *Dataset) PrefixIndex(i int) int32 { return d.recPrefix[i] }

// PathIndex returns accepted record i's collection path index, the key
// under which per-path results (chain starts, transit depths) are shared by
// every record on that path.
func (d *Dataset) PathIndex(i int) int32 { return d.recPath[i] }

// NumPaths returns the number of collection paths, the bound of PathIndex.
func (d *Dataset) NumPaths() int { return d.clean.NumPaths() }

// CleanPath returns collection path q's clean form; empty when no accepted
// record uses it.
func (d *Dataset) CleanPath(q int) bgp.Path { return d.clean.Path(int32(q)) }

// PathIDs is CleanPath resolved to dense ids, hop for hop: the id column
// beside the clean store, read at its offsets.
func (d *Dataset) PathIDs(q int) []int32 {
	lo, hi := d.clean.Off[q], d.clean.Off[q+1]
	return d.idHops[lo:hi:hi]
}

// DistinctPaths returns the accepted records' clean paths, each once, in
// order of first appearance: what relationship inference reads. A record
// whose collection path was already met adds nothing; two collection paths
// may clean to the same hops, so the rest are told apart by content through
// an interner sized for every collection path: a path it numbers anew is
// one not met before. The paths alias the dataset's arena.
func (d *Dataset) DistinctPaths() []bgp.Path {
	seen := make([]uint64, (d.NumPaths()+63)/64)
	in := bgp.NewInterner(d.NumPaths(), len(d.clean.Hops))
	var paths []bgp.Path
	for _, q := range d.recPath {
		if seen[q/64]&(1<<(q%64)) != 0 {
			continue
		}
		seen[q/64] |= 1 << (q % 64)
		if p := d.CleanPath(int(q)); int(in.Intern(p)) == len(paths) {
			paths = append(paths, p)
		}
	}
	return paths
}

// PrefixOf returns the prefix of accepted record i.
func (d *Dataset) PrefixOf(i int) netip.Prefix {
	return d.Prefixes[d.recPrefix[i]]
}

// CountriesWithPrefixes returns every country that has at least one
// geolocated prefix, sorted.
func (d *Dataset) CountriesWithPrefixes() []countries.Code {
	seen := map[countries.Code]bool{}
	for _, c := range d.PrefixCountry {
		if c != "" {
			seen[c] = true
		}
	}
	out := make([]countries.Code, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
