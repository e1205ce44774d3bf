// Package vp models BGP route collectors and their vantage points (VPs):
// the individual BGP peers that feed RouteViews- and RIS-style collectors.
// Geolocating VPs (§3.2.2 of the paper) uses the collector's published
// location, except for multi-hop collectors whose VPs may peer remotely and
// therefore cannot be geolocated; those VPs' paths are excluded.
package vp

import (
	"fmt"
	"net/netip"
	"sort"

	"countryrank/internal/asn"
	"countryrank/internal/countries"
)

// Collector is a route collector at a known location (usually an IXP).
type Collector struct {
	Name    string
	ID      netip.Addr // collector BGP identifier, IPv4
	Country countries.Code
	// MultiHop collectors accept remote (multi-hop eBGP) peers, so their
	// VPs' locations are unknown.
	MultiHop bool
}

// FeedType describes how much of its routing table a VP exports.
type FeedType uint8

const (
	// FullFeed VPs export their complete best-path table (most public VPs).
	FullFeed FeedType = iota
	// CustomerFeed VPs export only customer-learned routes, as a peer
	// applying normal peering export policy to the collector session would.
	CustomerFeed
)

// VP is one vantage point: a BGP peer of a collector.
type VP struct {
	// Index is the VP's position in its data set; stable within a world.
	Index int
	// Addr is the VP's peering address.
	Addr netip.Addr
	// AS is the network hosting the VP.
	AS asn.ASN
	// Collector names the collector this VP peers with.
	Collector string
	Feed      FeedType
}

// Set is an immutable collection of collectors and their VPs with the
// geolocation logic of §3.2.2 applied.
type Set struct {
	collectors map[string]Collector
	vps        []VP
}

// NewSet builds a Set, validating that every VP names a known collector and
// that VP indexes are dense and in order.
func NewSet(collectors []Collector, vps []VP) (*Set, error) {
	s := &Set{collectors: make(map[string]Collector, len(collectors))}
	for _, c := range collectors {
		if _, dup := s.collectors[c.Name]; dup {
			return nil, fmt.Errorf("vp: duplicate collector %q", c.Name)
		}
		s.collectors[c.Name] = c
	}
	for i, v := range vps {
		if _, ok := s.collectors[v.Collector]; !ok {
			return nil, fmt.Errorf("vp: VP %d references unknown collector %q", i, v.Collector)
		}
		if v.Index != i {
			return nil, fmt.Errorf("vp: VP at position %d has index %d", i, v.Index)
		}
	}
	s.vps = vps
	return s, nil
}

// Len returns the number of VPs.
func (s *Set) Len() int { return len(s.vps) }

// VP returns the VP at index i.
func (s *Set) VP(i int) VP { return s.vps[i] }

// VPs returns all VPs in index order.
func (s *Set) VPs() []VP { return s.vps }

// Collector returns the named collector.
func (s *Set) Collector(name string) (Collector, bool) {
	c, ok := s.collectors[name]
	return c, ok
}

// Collectors returns all collectors sorted by name.
func (s *Set) Collectors() []Collector {
	out := make([]Collector, 0, len(s.collectors))
	for _, c := range s.collectors {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Country geolocates VP i per §3.2.2: the collector's country, unless the
// collector is multi-hop, in which case the location is unknown and ok is
// false.
func (s *Set) Country(i int) (countries.Code, bool) {
	c := s.collectors[s.vps[i].Collector]
	if c.MultiHop {
		return "", false
	}
	return c.Country, true
}

// CountryCensus counts located VPs and their distinct ASes per country,
// the raw material for Table 4 and Figure 10.
type CountryCensus struct {
	Country countries.Code
	VPs     int
	VPASNs  int
}

// Census returns per-country VP counts sorted by descending VP count, then
// country code.
func (s *Set) Census() []CountryCensus {
	type acc struct {
		vps  int
		asns map[asn.ASN]bool
	}
	m := map[countries.Code]*acc{}
	for i, v := range s.vps {
		c, ok := s.Country(i)
		if !ok {
			continue
		}
		a := m[c]
		if a == nil {
			a = &acc{asns: map[asn.ASN]bool{}}
			m[c] = a
		}
		a.vps++
		a.asns[v.AS] = true
	}
	out := make([]CountryCensus, 0, len(m))
	for c, a := range m {
		out = append(out, CountryCensus{Country: c, VPs: a.vps, VPASNs: len(a.asns)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].VPs != out[j].VPs {
			return out[i].VPs > out[j].VPs
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// ASConcentration returns, for located VPs in country c, how many VPs share
// an AS with k-1 other VPs: the Figure 10 distribution. The returned map is
// keyed by the number of VPs in the VP's AS.
func (s *Set) ASConcentration(c countries.Code) map[int]int {
	perAS := map[asn.ASN]int{}
	for i, v := range s.vps {
		if got, ok := s.Country(i); ok && got == c {
			perAS[v.AS]++
		}
	}
	out := map[int]int{}
	for _, n := range perAS {
		out[n] += n
	}
	return out
}
