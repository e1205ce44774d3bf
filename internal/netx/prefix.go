// Package netx provides IP prefix utilities used throughout the ranking
// pipeline: address weighting, prefix relations, a binary radix trie over
// prefixes, and the non-overlapping block splitting that prefix geolocation
// (§3.2.1 of the paper) requires.
//
// The package is built on net/netip and supports both IPv4 and IPv6, though
// the synthetic workloads in this repository are IPv4-centric like the
// paper's April 2021 data set.
package netx

import (
	"fmt"
	"net/netip"
)

// AddressWeight returns the number of addresses covered by p, used to weight
// prefixes in the customer cone and hegemony calculations. IPv4 prefixes
// count individual addresses (a /24 weighs 256). IPv6 prefixes count /64
// subnets so that weights remain comparable across huge allocations; a /48
// weighs 65536 and any prefix longer than /64 weighs 1.
func AddressWeight(p netip.Prefix) uint64 {
	if !p.IsValid() {
		return 0
	}
	if p.Addr().Is4() {
		return 1 << (32 - p.Bits())
	}
	if p.Bits() >= 64 {
		return 1
	}
	return 1 << (64 - p.Bits())
}

// Covers reports whether outer contains every address of inner. A prefix
// covers itself. Prefixes of different address families never cover each
// other.
func Covers(outer, inner netip.Prefix) bool {
	if outer.Addr().Is4() != inner.Addr().Is4() {
		return false
	}
	return outer.Bits() <= inner.Bits() && outer.Contains(inner.Addr())
}

// Halves splits p into its two child prefixes of length Bits()+1. It panics
// if p is a host route (/32 or /128), which has no children.
func Halves(p netip.Prefix) (lo, hi netip.Prefix) {
	bits := p.Bits()
	max := 32
	if !p.Addr().Is4() {
		max = 128
	}
	if bits >= max {
		panic(fmt.Sprintf("netx: Halves of host route %v", p))
	}
	lo = netip.PrefixFrom(p.Masked().Addr(), bits+1)
	hiAddr := setBit(p.Masked().Addr(), bits)
	hi = netip.PrefixFrom(hiAddr, bits+1)
	return lo.Masked(), hi.Masked()
}

// setBit returns addr with bit i (0 = most significant) set to 1.
func setBit(addr netip.Addr, i int) netip.Addr {
	if addr.Is4() {
		a4 := addr.As4()
		a4[i/8] |= 1 << (7 - i%8)
		return netip.AddrFrom4(a4)
	}
	a16 := addr.As16()
	a16[i/8] |= 1 << (7 - i%8)
	return netip.AddrFrom16(a16)
}

// bit returns bit i (0 = most significant) of addr.
func bit(addr netip.Addr, i int) int {
	var b byte
	if addr.Is4() {
		a4 := addr.As4()
		b = a4[i/8]
	} else {
		a16 := addr.As16()
		b = a16[i/8]
	}
	return int(b>>(7-i%8)) & 1
}

// MustPrefix parses s as a CIDR prefix and panics on error. It is intended
// for tests and for the hand-curated world model where inputs are constants.
func MustPrefix(s string) netip.Prefix {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p.Masked()
}

// ComparePrefixes orders prefixes by family (IPv4 first), then address, then
// length. It is the canonical ordering for deterministic iteration.
func ComparePrefixes(a, b netip.Prefix) int {
	a4, b4 := a.Addr().Is4(), b.Addr().Is4()
	if a4 != b4 {
		if a4 {
			return -1
		}
		return 1
	}
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	switch {
	case a.Bits() < b.Bits():
		return -1
	case a.Bits() > b.Bits():
		return 1
	}
	return 0
}
