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

// Key returns a compact comparable key for map indexing of paths: the hops'
// big-endian bytes.
func (p Path) Key() string {
	b := make([]byte, 0, len(p)*4)
	for _, a := range p {
		b = append(b, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return string(b)
}

// Paths holds AS paths back to back in one pointer-free arena: path q is
// Hops[Off[q]:Off[q+1]]. It is the one path store of the pipeline —
// propagation shards, MRT decode streams, the Interner, the Collection and
// the sanitized Dataset each keep one — and the only code that knows the
// layout. The zero value holds no path.
type Paths struct {
	Hops []asn.ASN
	Off  []int32
}

// NumPaths returns the number of paths.
func (ps *Paths) NumPaths() int { return max(len(ps.Off)-1, 0) }

// Path returns path q. It aliases the arena, capped so that an append by
// the caller copies instead of reaching the next path; callers must not
// write through it.
func (ps *Paths) Path(q int32) Path {
	lo, hi := ps.Off[q], ps.Off[q+1]
	return Path(ps.Hops[lo:hi:hi])
}

// AppendPath copies p in as the next path and returns its number. A full
// arena doubles, so N appends reallocate it O(log N) times.
func (ps *Paths) AppendPath(p Path) int32 {
	if len(ps.Off) == 0 {
		ps.Off = append(ps.Off, 0)
	}
	ps.Hops = append(grow(ps.Hops, len(p), max(cap(ps.Hops), 16)), p...)
	ps.Off = append(grow(ps.Off, 1, cap(ps.Off)), int32(len(ps.Hops)))
	return int32(len(ps.Off) - 2)
}

// Grow makes room for n more paths of h more hops in all, reallocating to
// exactly that when it must: the presize for callers that know their size.
func (ps *Paths) Grow(n, h int) {
	ps.Hops = grow(ps.Hops, h, 0)
	ps.Off = grow(ps.Off, n+1, 0)
	if len(ps.Off) == 0 {
		ps.Off = append(ps.Off, 0)
	}
}

// Reserve makes room for n more paths of h more hops, and 1/32 to spare,
// for a producer that has done done of its total work, these paths
// included. When the room runs out it extrapolates the store to the whole
// work, so a short estimate is replaced by one read from more of the work
// instead of doubling.
func (ps *Paths) Reserve(n, h int, done, total int64) {
	if cap(ps.Hops)-len(ps.Hops) >= h+h/32 && cap(ps.Off)-len(ps.Off) >= n+n/32+1 {
		return
	}
	wantN, wantH := int64(ps.NumPaths()+n)*total/done, int64(len(ps.Hops)+h)*total/done
	ps.Grow(int(wantN+wantN/32)-ps.NumPaths(), int(wantH+wantH/32)-len(ps.Hops))
}

// Reset empties ps, keeping its capacity.
func (ps *Paths) Reset() {
	ps.Hops, ps.Off = ps.Hops[:0], ps.Off[:min(len(ps.Off), 1)]
}

// grow returns s with room for n more elements, reallocating to room for
// extra more beyond those when it must.
func grow[T any](s []T, n, extra int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n+extra), s...)
}
