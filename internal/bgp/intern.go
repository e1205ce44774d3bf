package bgp

// Interner hash-conses AS paths: equal paths map to one number and one
// copy of their hops. MRT import runs it over its record streams, so the
// millions of duplicate paths observed across prefixes collapse to one copy
// each. The copies are a Paths, the store a Collection keeps, so they can be
// handed over whole. The index is an open-addressing table hashed directly
// over the ASNs — no per-lookup key rendering, no retained key strings, and
// deterministic iteration because identity lives in the store's order, not
// the table. Not safe for concurrent use; parallel importers collect
// locally and intern during the merge.
type Interner struct {
	table []int32 // 1-based path numbers; 0 marks an empty slot
	paths Paths
}

// NewInterner returns an empty interner sized for at least n distinct paths
// of h hops in all.
func NewInterner(n, h int) *Interner {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	it := &Interner{table: make([]int32, size)}
	it.paths.Grow(n, h)
	return it
}

// Intern returns the number of p, copying p into the store on first sight;
// the caller keeps p. The table is probed linearly from p's hash to p or to
// the empty slot where p belongs.
func (it *Interner) Intern(p Path) int32 {
	mask := uint64(len(it.table) - 1)
	i := hashPath(p) & mask
	for ; it.table[i] != 0; i = (i + 1) & mask {
		if v := it.table[i] - 1; it.paths.Path(v).Equal(p) {
			return v
		}
	}
	v := it.paths.AppendPath(p)
	it.table[i] = v + 1
	if 4*int(v+1) >= 3*len(it.table) {
		it.grow()
	}
	return v
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

func (it *Interner) grow() {
	next := make([]int32, 2*len(it.table))
	mask := uint64(len(next) - 1)
	for _, v := range it.table {
		if v == 0 {
			continue
		}
		i := hashPath(it.paths.Path(v-1)) & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = v
	}
	it.table = next
}

// Arena releases the interned paths, numbered as Intern returned them. The
// interner must not be used after.
func (it *Interner) Arena() Paths {
	ps := it.paths
	*it = Interner{}
	return ps
}
