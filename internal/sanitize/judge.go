package sanitize

import (
	"countryrank/internal/asn"
	"countryrank/internal/bgp"
)

// What the judge needs to know about one ASN, folded out of Config's
// registry and two sets into one byte so each hop costs one array read.
const (
	flagAllocated uint8 = 1 << iota
	flagClique
	flagRouteServer
)

// judge applies the path-content filters and cleaning of §3.1 to one path
// at a time, reusing its buffers between paths. Not safe for concurrent use.
type judge struct {
	// flags is filled once from Config and only read afterwards: a hop is
	// looked up, never entered, so path bytes from an MRT file cannot grow
	// it. An ASN it has no entry for is unallocated and in neither set.
	flags asn.Table[uint8]
	// every is or-ed into each hop's flags: flagAllocated when Config has no
	// registry (nothing is unallocated then), else nothing.
	every uint8
	// hops/hopFlags hold the current path with prepending collapsed, and
	// each surviving hop's flags; kept holds it again without route servers.
	hops     bgp.Path
	hopFlags []uint8
	kept     bgp.Path
}

func newJudge(cfg Config) *judge {
	j := new(judge)
	if cfg.Registry == nil {
		j.every = flagAllocated
	} else {
		cfg.Registry.ForEach(func(a asn.ASN) { *j.flags.At(a) |= flagAllocated })
	}
	for a, in := range cfg.Clique {
		if in {
			*j.flags.At(a) |= flagClique
		}
	}
	for a, in := range cfg.RouteServers {
		if in {
			*j.flags.At(a) |= flagRouteServer
		}
	}
	return j
}

// judge returns p's verdict — Accepted, Unallocated, Loop or Poisoned,
// tested in that order of precedence — and, when accepted, its clean form:
// prepending collapsed, route-server hops dropped, prepending collapsed
// again across the dropped hops. The clean form lives in the judge's buffers
// and is good until the next call; a rejected path's is nil.
func (j *judge) judge(p bgp.Path) (Reason, bgp.Path) {
	hops, hopFlags := j.hops[:0], j.hopFlags[:0] // locals: no store per hop
	var routeServers uint8
	for i, a := range p {
		f := j.flags.Get(a) | j.every
		if f&flagAllocated == 0 {
			return Unallocated, nil
		}
		if i > 0 && a == p[i-1] {
			continue
		}
		hops, hopFlags = append(hops, a), append(hopFlags, f)
		routeServers |= f & flagRouteServer
	}
	j.hops, j.hopFlags = hops, hopFlags
	if hops.HasNonAdjacentLoop() {
		return Loop, nil
	}
	// Poisoning: a non-clique AS between two clique ASes (§3.1).
	lastClique := -1
	for i, f := range hopFlags {
		if f&flagClique == 0 {
			continue
		}
		if lastClique >= 0 && i-lastClique > 1 {
			return Poisoned, nil
		}
		lastClique = i
	}

	clean := hops
	if routeServers != 0 {
		j.kept = j.kept[:0]
		for i, a := range hops {
			if hopFlags[i]&flagRouteServer != 0 {
				continue
			}
			if n := len(j.kept); n == 0 || j.kept[n-1] != a {
				j.kept = append(j.kept, a)
			}
		}
		clean = j.kept
	}
	return Accepted, clean
}
