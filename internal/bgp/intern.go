package bgp

import "countryrank/internal/asn"

// Interner hash-conses AS paths: equal paths map to one number and one
// copy of their hops. MRT import runs it over its record streams, so the
// millions of duplicate paths observed across prefixes collapse to one copy
// each. The copies sit back to back in one pointer-free arena, the layout a
// Collection keeps, so the arena can be handed over whole. The index is an
// open-addressing table hashed directly over the ASNs — no per-lookup key
// rendering, no retained key strings, and deterministic iteration because
// identity lives in the arena's order, not the table. Not safe for
// concurrent use; parallel importers collect locally and intern during the
// merge.
type Interner struct {
	table []int32 // 1-based path numbers; 0 marks an empty slot
	hops  []asn.ASN
	off   []int32 // path i is hops[off[i]:off[i+1]]
}

// NewInterner returns an empty interner sized for at least n distinct paths
// of h hops in all.
func NewInterner(n, h int) *Interner {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return &Interner{
		table: make([]int32, size),
		hops:  make([]asn.ASN, 0, h),
		off:   append(make([]int32, 0, n+1), 0),
	}
}

// Intern returns the number of p, copying p into the arena on first sight;
// the caller keeps p.
func (it *Interner) Intern(p Path) int32 {
	slot, i, ok := it.find(p)
	if ok {
		return i
	}
	return it.insert(slot, p)
}

// path returns interned path i, aliasing the arena.
func (it *Interner) path(i int32) Path {
	return Path(it.hops[it.off[i]:it.off[i+1]])
}

func hashPath(p Path) uint64 {
	h := uint64(14695981039346656037) // FNV-1a, then a 64-bit finalizer
	for _, a := range p {
		h ^= uint64(a)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// find probes for p, returning its id if present, else the empty slot where
// it belongs.
func (it *Interner) find(p Path) (slot int, id int32, ok bool) {
	mask := uint64(len(it.table) - 1)
	i := hashPath(p) & mask
	for {
		v := it.table[i]
		if v == 0 {
			return int(i), 0, false
		}
		if it.path(v - 1).Equal(p) {
			return int(i), v - 1, true
		}
		i = (i + 1) & mask
	}
}

func (it *Interner) insert(slot int, p Path) int32 {
	i := int32(len(it.off) - 1)
	it.hops = append(it.hops, p...)
	it.off = append(it.off, int32(len(it.hops)))
	it.table[slot] = i + 1
	if 4*int(i+1) >= 3*len(it.table) {
		it.grow()
	}
	return i
}

func (it *Interner) grow() {
	next := make([]int32, 2*len(it.table))
	mask := uint64(len(next) - 1)
	for _, v := range it.table {
		if v == 0 {
			continue
		}
		i := hashPath(it.path(v-1)) & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = v
	}
	it.table = next
}

// Arena releases the interned paths: path i, numbered as Intern returned
// it, is hops[off[i]:off[i+1]]. The interner must not be used after.
func (it *Interner) Arena() (hops []asn.ASN, off []int32) {
	hops, off = it.hops, it.off
	*it = Interner{}
	return hops, off
}

// appendPathKey appends the big-endian byte rendering of p, the comparable
// form Path.Key builds.
func appendPathKey(dst []byte, p Path) []byte {
	for _, a := range p {
		dst = append(dst, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return dst
}
