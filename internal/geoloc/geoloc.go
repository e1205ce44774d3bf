// Package geoloc implements prefix geolocation per §3.2.1 and Appendix B of
// the paper. A DB plays the role the NetAcuity commercial service plays in
// the paper: it answers "which country is this address in" at arbitrary
// granularity. On top of it, GeolocatePrefixes implements the paper's
// pipeline: split announced prefixes into non-overlapping blocks mapped to
// their most specific prefix, drop prefixes entirely covered by more
// specifics, and assign each remaining prefix to a country only when at
// least a majority-threshold share of its addresses agree.
package geoloc

import (
	"fmt"
	"net/netip"
	"sort"

	"countryrank/internal/countries"
	"countryrank/internal/netx"
)

// DB is an address-to-country database. Entries are CIDR-aligned and the
// most specific entry covering an address wins, like a commercial
// geolocation feed flattened to country granularity.
type DB struct {
	trie netx.Trie[countries.Code]
}

// Add records that every address of p geolocates to country c, unless a more
// specific entry overrides part of p.
func (db *DB) Add(p netip.Prefix, c countries.Code) {
	db.trie.Insert(p, c)
}

// CountryOf returns the country of a single address.
func (db *DB) CountryOf(addr netip.Addr) (countries.Code, bool) {
	_, c, ok := db.trie.Lookup(addr)
	return c, ok
}

// WeightByCountry accumulates into acc the number of addresses of block
// geolocated to each country. Addresses with no DB entry are accumulated
// under the empty Code.
func (db *DB) WeightByCountry(block netip.Prefix, acc map[countries.Code]uint64) {
	if len(db.trie.Descendants(block)) == 0 {
		// No finer-grained entries inside the block: the longest match of any
		// address in it is uniform across the block.
		c, ok := db.CountryOf(block.Addr())
		if !ok {
			c = ""
		}
		acc[c] += netx.AddressWeight(block)
		return
	}
	lo, hi := netx.Halves(block)
	db.WeightByCountry(lo, acc)
	db.WeightByCountry(hi, acc)
}

// FilterReason explains why a prefix received no country.
type FilterReason uint8

const (
	// NotFiltered marks prefixes that geolocated successfully.
	NotFiltered FilterReason = iota
	// CoveredByMoreSpecifics marks prefixes whose entire address space is
	// covered by more specific announced prefixes (1.2% in the paper).
	CoveredByMoreSpecifics
	// NoConsensus marks prefixes where no country reached the majority
	// threshold (0.2% of prefixes, 1.5% of addresses in the paper).
	NoConsensus
)

func (r FilterReason) String() string {
	switch r {
	case NotFiltered:
		return "ok"
	case CoveredByMoreSpecifics:
		return "covered-by-more-specifics"
	case NoConsensus:
		return "no-geolocation-consensus"
	}
	return fmt.Sprintf("FilterReason(%d)", r)
}

// PrefixGeo is the geolocation outcome for one announced prefix.
type PrefixGeo struct {
	Prefix  netip.Prefix
	Country countries.Code // valid only when Reason == NotFiltered
	Reason  FilterReason
	// Majority is the address share of the winning (or plurality) country.
	Majority float64
	// Plurality is the country with the largest address share even when the
	// threshold was not met; used by the Figure 8 threshold sweep and the
	// Table 13/14 per-country filter accounting.
	Plurality countries.Code
}

// Table is the result of geolocating a set of announced prefixes.
type Table struct {
	ByPrefix map[netip.Prefix]PrefixGeo
	// Threshold is the majority threshold used (the paper uses 0.50).
	Threshold float64
}

// GeolocatePrefixes runs the §3.2.1 pipeline over the announced prefixes.
func GeolocatePrefixes(db *DB, announced []netip.Prefix, threshold float64) *Table {
	t := &Table{ByPrefix: make(map[netip.Prefix]PrefixGeo, len(announced)), Threshold: threshold}

	var cover netx.Trie[struct{}]
	for _, p := range announced {
		cover.Insert(p, struct{}{})
	}
	blocks := netx.SplitBlocks(announced)
	blocksByOwner := map[netip.Prefix][]netip.Prefix{}
	for _, b := range blocks {
		blocksByOwner[b.Owner] = append(blocksByOwner[b.Owner], b.Prefix)
	}

	for _, pv := range cover.All() { // canonical order, deduplicated
		p := pv.Prefix
		owned := blocksByOwner[p]
		if len(owned) == 0 {
			t.ByPrefix[p] = PrefixGeo{Prefix: p, Reason: CoveredByMoreSpecifics}
			continue
		}
		acc := map[countries.Code]uint64{}
		for _, b := range owned {
			db.WeightByCountry(b, acc)
		}
		var total, best uint64
		var bestC countries.Code
		for c, w := range acc {
			total += w
			if c == "" {
				continue // unlocatable addresses never win
			}
			if w > best || (w == best && c < bestC) {
				best, bestC = w, c
			}
		}
		g := PrefixGeo{Prefix: p, Plurality: bestC}
		if total > 0 {
			g.Majority = float64(best) / float64(total)
		}
		// Appendix B: the winning country's share must be *above* the
		// threshold, so an exact 50/50 split fails at the 0.5 threshold.
		if bestC != "" && g.Majority > threshold {
			g.Country = bestC
			g.Reason = NotFiltered
		} else {
			g.Reason = NoConsensus
		}
		t.ByPrefix[p] = g
	}
	return t
}

// Country returns the country of p, with ok false when p was filtered or
// never geolocated.
func (t *Table) Country(p netip.Prefix) (countries.Code, bool) {
	g, ok := t.ByPrefix[p]
	if !ok || g.Reason != NotFiltered {
		return "", false
	}
	return g.Country, true
}

// CountryStat aggregates per-country accounting for Tables 4, 13 and 14.
type CountryStat struct {
	Country countries.Code
	// Prefixes and Addresses count successfully geolocated prefixes.
	Prefixes  int
	Addresses uint64
	// FilteredPrefixes / FilteredAddresses count prefixes attributed to the
	// country by plurality that the threshold filtered (Tables 13/14).
	FilteredPrefixes  int
	FilteredAddresses uint64
}

// PctPrefixesFiltered returns the Table 13 percentage for the country.
func (s CountryStat) PctPrefixesFiltered() float64 {
	n := s.Prefixes + s.FilteredPrefixes
	if n == 0 {
		return 0
	}
	return 100 * float64(s.FilteredPrefixes) / float64(n)
}

// PctAddressesFiltered returns the Table 14 percentage for the country.
func (s CountryStat) PctAddressesFiltered() float64 {
	n := s.Addresses + s.FilteredAddresses
	if n == 0 {
		return 0
	}
	return 100 * float64(s.FilteredAddresses) / float64(n)
}

// CountryStats returns per-country accounting sorted by country code.
// Covered-by-more-specific prefixes belong to no country and are excluded,
// matching the paper (they carry no forwarded traffic).
func (t *Table) CountryStats() []CountryStat {
	m := map[countries.Code]*CountryStat{}
	get := func(c countries.Code) *CountryStat {
		s := m[c]
		if s == nil {
			s = &CountryStat{Country: c}
			m[c] = s
		}
		return s
	}
	for _, g := range t.ByPrefix {
		switch g.Reason {
		case NotFiltered:
			s := get(g.Country)
			s.Prefixes++
			s.Addresses += netx.AddressWeight(g.Prefix)
		case NoConsensus:
			if g.Plurality == "" {
				continue
			}
			s := get(g.Plurality)
			s.FilteredPrefixes++
			s.FilteredAddresses += netx.AddressWeight(g.Prefix)
		}
	}
	out := make([]CountryStat, 0, len(m))
	for _, s := range m {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Country < out[j].Country })
	return out
}

// FilteredLengthHistogram returns, keyed by prefix length, how many prefixes
// each filter reason removed: the Figure 9 histogram.
func (t *Table) FilteredLengthHistogram() map[FilterReason]map[int]int {
	out := map[FilterReason]map[int]int{
		CoveredByMoreSpecifics: {},
		NoConsensus:            {},
	}
	for _, g := range t.ByPrefix {
		if g.Reason == NotFiltered {
			continue
		}
		out[g.Reason][g.Prefix.Bits()]++
	}
	return out
}
