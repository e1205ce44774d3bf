package netx

import (
	"net/netip"
	"sort"
)

// Trie is a binary radix trie mapping IP prefixes to values. It supports the
// coverage queries the geolocation pipeline needs: longest-prefix match,
// descendant enumeration, and detecting prefixes entirely covered by more
// specifics. The zero value is empty and ready to use. Trie is not safe for
// concurrent mutation.
type Trie[V any] struct {
	v4, v6 *trieNode[V]
	count  int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
}

// Insert associates val with prefix p, replacing any existing value.
func (t *Trie[V]) Insert(p netip.Prefix, val V) {
	p = p.Masked()
	n := t.root(p, true)
	for i := 0; i < p.Bits(); i++ {
		b := bit(p.Addr(), i)
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	if !n.set {
		t.count++
	}
	n.set = true
	n.val = val
}

func (t *Trie[V]) root(p netip.Prefix, create bool) *trieNode[V] {
	if p.Addr().Is4() {
		if t.v4 == nil && create {
			t.v4 = &trieNode[V]{}
		}
		return t.v4
	}
	if t.v6 == nil && create {
		t.v6 = &trieNode[V]{}
	}
	return t.v6
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.count }

// Get returns the value stored exactly at p.
func (t *Trie[V]) Get(p netip.Prefix) (V, bool) {
	var zero V
	p = p.Masked()
	n := t.root(p, false)
	if n == nil {
		return zero, false
	}
	for i := 0; i < p.Bits(); i++ {
		n = n.child[bit(p.Addr(), i)]
		if n == nil {
			return zero, false
		}
	}
	if !n.set {
		return zero, false
	}
	return n.val, true
}

// Lookup returns the value of the longest stored prefix containing addr.
func (t *Trie[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	var zero V
	var bestVal V
	bestLen := -1
	fam := netip.PrefixFrom(addr, 0)
	n := t.root(fam, false)
	if n == nil {
		return netip.Prefix{}, zero, false
	}
	max := 32
	if !addr.Is4() {
		max = 128
	}
	for i := 0; ; i++ {
		if n.set {
			bestLen = i
			bestVal = n.val
		}
		if i == max {
			break
		}
		n = n.child[bit(addr, i)]
		if n == nil {
			break
		}
	}
	if bestLen < 0 {
		return netip.Prefix{}, zero, false
	}
	return netip.PrefixFrom(addr, bestLen).Masked(), bestVal, true
}

// Descendants returns all stored prefixes strictly more specific than p,
// in canonical order.
func (t *Trie[V]) Descendants(p netip.Prefix) []netip.Prefix {
	p = p.Masked()
	n := t.root(p, false)
	if n == nil {
		return nil
	}
	for i := 0; i < p.Bits(); i++ {
		n = n.child[bit(p.Addr(), i)]
		if n == nil {
			return nil
		}
	}
	var out []netip.Prefix
	var walk func(n *trieNode[V], pfx netip.Prefix)
	walk = func(n *trieNode[V], pfx netip.Prefix) {
		if n == nil {
			return
		}
		if n.set && pfx != p {
			out = append(out, pfx)
		}
		max := 32
		if !pfx.Addr().Is4() {
			max = 128
		}
		if pfx.Bits() >= max {
			return
		}
		lo, hi := Halves(pfx)
		walk(n.child[0], lo)
		walk(n.child[1], hi)
	}
	walk(n, p)
	sort.Slice(out, func(i, j int) bool { return ComparePrefixes(out[i], out[j]) < 0 })
	return out
}

// All returns every stored (prefix, value) pair in canonical order.
func (t *Trie[V]) All() []PrefixValue[V] {
	var out []PrefixValue[V]
	var walk func(n *trieNode[V], pfx netip.Prefix)
	walk = func(n *trieNode[V], pfx netip.Prefix) {
		if n == nil {
			return
		}
		if n.set {
			out = append(out, PrefixValue[V]{Prefix: pfx, Value: n.val})
		}
		max := 32
		if !pfx.Addr().Is4() {
			max = 128
		}
		if pfx.Bits() >= max {
			return
		}
		lo, hi := Halves(pfx)
		walk(n.child[0], lo)
		walk(n.child[1], hi)
	}
	if t.v4 != nil {
		walk(t.v4, MustPrefix("0.0.0.0/0"))
	}
	if t.v6 != nil {
		walk(t.v6, MustPrefix("::/0"))
	}
	sort.Slice(out, func(i, j int) bool { return ComparePrefixes(out[i].Prefix, out[j].Prefix) < 0 })
	return out
}

// PrefixValue pairs a prefix with its stored value.
type PrefixValue[V any] struct {
	Prefix netip.Prefix
	Value  V
}
