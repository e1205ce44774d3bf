package asn

// pageBits splits an ASN into a page number (the high bits) and a slot.
const pageBits = 16

// Table maps ASNs to values without hashing: a two-level array whose
// 64 Ki-entry pages are created by At and by nothing else. Get on an ASN
// whose page was never written returns the zero value and allocates
// nothing, so looking up numbers that arrive from outside — the hops of an
// MRT path — cannot size the table; only the caller's writes do. The zero
// Table is empty and ready to use. Not safe for concurrent writes.
type Table[T any] struct {
	pages []*[1 << pageBits]T // indexed by ASN >> pageBits, grown to the highest page written
}

// Get returns the value stored for a, the zero value when none was.
func (t *Table[T]) Get(a ASN) T {
	if hi := int(a >> pageBits); hi < len(t.pages) {
		if p := t.pages[hi]; p != nil {
			return p[a&(1<<pageBits-1)]
		}
	}
	var zero T
	return zero
}

// At returns the slot for a, creating its page when a is the first ASN
// written there.
func (t *Table[T]) At(a ASN) *T {
	hi := int(a >> pageBits)
	if hi >= len(t.pages) {
		t.pages = append(t.pages, make([]*[1 << pageBits]T, hi+1-len(t.pages))...)
	}
	p := t.pages[hi]
	if p == nil {
		p = new([1 << pageBits]T)
		t.pages[hi] = p
	}
	return &p[a&(1<<pageBits-1)]
}

// Pages returns how many pages exist.
func (t *Table[T]) Pages() int {
	n := 0
	for _, p := range t.pages {
		if p != nil {
			n++
		}
	}
	return n
}
