// Package bgp implements the BGP-4 structures the ranking pipeline consumes:
// AS paths with the loop check the sanitizer needs, a path interner, and
// the path-attribute wire codec (RFC 4271) with 4-byte AS paths (RFC 6793)
// that MRT RIB entries carry. The MRT package layers the RouteViews/RIS
// TABLE_DUMP_V2 format on top of this codec.
package bgp

import (
	"strings"

	"countryrank/internal/asn"
)

// Path is an AS path in collection order: Path[0] is the AS nearest the
// vantage point and Path[len-1] is the origin AS that announced the prefix.
type Path []asn.ASN

// Origin returns the origin AS (the last element) and true, or 0 and false
// for an empty path.
func (p Path) Origin() (asn.ASN, bool) {
	if len(p) == 0 {
		return 0, false
	}
	return p[len(p)-1], true
}

// Contains reports whether a appears anywhere on the path.
func (p Path) Contains(a asn.ASN) bool {
	for _, x := range p {
		if x == a {
			return true
		}
	}
	return false
}

// Equal reports element-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// HasNonAdjacentLoop reports whether any ASN reappears after an intervening
// different ASN (the "A C A" pattern the sanitizer rejects as a loop).
// Adjacent duplicates from prepending do not count. Paths of ordinary length
// are checked by comparing hops pairwise, which allocates nothing; the long
// ones an MRT attribute can carry (255 hops per segment) keep a set, so the
// check stays linear in the path.
func (p Path) HasNonAdjacentLoop() bool {
	const pairwiseMax = 32
	if len(p) > pairwiseMax {
		return p.hasNonAdjacentLoopSet()
	}
	for i := 2; i < len(p); i++ {
		if p[i] == p[i-1] {
			continue
		}
		// p[i-1] differs from p[i], so any earlier occurrence is a loop.
		for _, a := range p[:i-1] {
			if a == p[i] {
				return true
			}
		}
	}
	return false
}

func (p Path) hasNonAdjacentLoopSet() bool {
	seen := make(map[asn.ASN]bool, len(p))
	var prev asn.ASN
	for i, a := range p {
		if i > 0 && a == prev {
			continue
		}
		if seen[a] {
			return true
		}
		seen[a] = true
		prev = a
	}
	return false
}

// String renders the path in the conventional space-separated form,
// vantage-point side first.
func (p Path) String() string {
	var b strings.Builder
	for i, a := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.String())
	}
	return b.String()
}

// Key returns a compact comparable key for map indexing of paths: the same
// big-endian rendering the Interner hashes.
func (p Path) Key() string {
	return string(appendPathKey(make([]byte, 0, len(p)*4), p))
}
