package bgp

// Interner hash-conses AS paths: equal paths map to one index and share a
// single backing array. Collection assembly and MRT import both run it over
// their record streams, so the millions of duplicate paths observed across
// prefixes collapse to one allocation each. The index is an open-addressing
// table hashed directly over the ASNs — no per-lookup key rendering, no
// retained key strings, and deterministic iteration because identity lives
// in the paths slice, not the table. Not safe for concurrent use; parallel
// importers collect locally and intern during the merge.
type Interner struct {
	table []int32 // 1-based indexes into paths; 0 marks an empty slot
	paths []Path
}

// NewInterner returns an empty interner sized for at least n distinct paths.
func NewInterner(n int) *Interner {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return &Interner{table: make([]int32, size), paths: make([]Path, 0, n)}
}

// InternOwned returns the index of p, a path the caller hands over: on
// first sight the table keeps p itself, so freshly built paths are interned
// with zero extra allocation. The caller must not mutate p after.
func (it *Interner) InternOwned(p Path) int32 {
	slot, i, ok := it.find(p)
	if ok {
		return i
	}
	return it.insert(slot, p)
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
		if it.paths[v-1].Equal(p) {
			return int(i), v - 1, true
		}
		i = (i + 1) & mask
	}
}

func (it *Interner) insert(slot int, p Path) int32 {
	i := int32(len(it.paths))
	it.paths = append(it.paths, p)
	it.table[slot] = i + 1
	if 4*len(it.paths) >= 3*len(it.table) {
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
		i := hashPath(it.paths[v-1]) & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = v
	}
	it.table = next
}

// Paths releases the table's path slice, indexed by the values InternOwned
// returned. The interner must not be used after.
func (it *Interner) Paths() []Path {
	out := it.paths
	it.paths = nil
	it.table = nil
	return out
}

// appendPathKey appends the big-endian byte rendering of p, the comparable
// form Path.Key builds.
func appendPathKey(dst []byte, p Path) []byte {
	for _, a := range p {
		dst = append(dst, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return dst
}
