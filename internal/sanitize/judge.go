package sanitize

import (
	"countryrank/internal/asn"
	"countryrank/internal/bgp"
)

// What the judge needs to know about one ASN, folded out of Config's
// registry and two sets into one byte so each hop costs one lookup.
const (
	flagKnown uint8 = 1 << iota // set on every memoised entry: 0 means "not looked up yet"
	flagUnallocated
	flagClique
	flagRouteServer
)

// judge applies the path-content filters and cleaning of §3.1 to one path
// at a time, reusing its buffers between paths. Not safe for concurrent use.
type judge struct {
	cfg   Config
	flags map[asn.ASN]uint8
	// hops/hopFlags hold the current path with prepending collapsed, and
	// each surviving hop's flags; kept holds it again without route servers.
	hops     bgp.Path
	hopFlags []uint8
	kept     bgp.Path
	// chunk is the storage clean forms that differ from their input are
	// carved from; a full chunk is left to its paths and a new one started.
	chunk []asn.ASN
}

func newJudge(cfg Config) *judge {
	return &judge{cfg: cfg, flags: make(map[asn.ASN]uint8)}
}

func (j *judge) flagsOf(a asn.ASN) uint8 {
	f := j.flags[a]
	if f == 0 {
		f = flagKnown
		if j.cfg.Registry != nil && !j.cfg.Registry.Allocated(a) {
			f |= flagUnallocated
		}
		if j.cfg.Clique[a] {
			f |= flagClique
		}
		if j.cfg.RouteServers[a] {
			f |= flagRouteServer
		}
		j.flags[a] = f
	}
	return f
}

// judge returns p's verdict — Accepted, Unallocated, Loop or Poisoned,
// tested in that order of precedence — and, when accepted, its clean form:
// prepending collapsed, route-server hops dropped, prepending collapsed
// again across the dropped hops. A clean form equal to p is p itself;
// anything else is carved from the judge's chunk storage, which is never
// reused, so later calls leave both alone. A path that cleans down to
// nothing returns nil.
func (j *judge) judge(p bgp.Path) (Reason, bgp.Path) {
	j.hops, j.hopFlags = j.hops[:0], j.hopFlags[:0]
	var routeServers uint8
	for i, a := range p {
		f := j.flagsOf(a)
		if f&flagUnallocated != 0 {
			return Unallocated, nil
		}
		if i > 0 && a == p[i-1] {
			continue
		}
		j.hops, j.hopFlags = append(j.hops, a), append(j.hopFlags, f)
		routeServers |= f & flagRouteServer
	}
	if j.hops.HasNonAdjacentLoop() {
		return Loop, nil
	}
	// Poisoning: a non-clique AS between two clique ASes (§3.1).
	lastClique := -1
	for i, f := range j.hopFlags {
		if f&flagClique == 0 {
			continue
		}
		if lastClique >= 0 && i-lastClique > 1 {
			return Poisoned, nil
		}
		lastClique = i
	}

	clean := j.hops
	if routeServers != 0 {
		j.kept = j.kept[:0]
		for i, a := range j.hops {
			if j.hopFlags[i]&flagRouteServer != 0 {
				continue
			}
			if n := len(j.kept); n == 0 || j.kept[n-1] != a {
				j.kept = append(j.kept, a)
			}
		}
		clean = j.kept
	}
	switch {
	case len(clean) == len(p): // nothing collapsed, nothing dropped
		return Accepted, p
	case len(clean) == 0:
		return Accepted, nil
	}
	if len(clean) > cap(j.chunk)-len(j.chunk) {
		j.chunk = make([]asn.ASN, 0, max(4096, len(clean)))
	}
	n := len(j.chunk)
	j.chunk = append(j.chunk, clean...)
	return Accepted, bgp.Path(j.chunk[n:len(j.chunk):len(j.chunk)])
}
