package topology

import (
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/netx"
)

func TestIPv6WorldGeneration(t *testing.T) {
	cfg := smallCfg(Apr2021)
	cfg.IPv6 = true
	w := Build(cfg)

	var v6 int
	var tr netx.Trie[int]
	for _, po := range w.Graph.AllPrefixes() {
		p := po.Prefix
		if p.Addr().Is4() {
			continue
		}
		v6++
		// All v6 allocations live in the synthetic 2001::/16 space, sized
		// /44../48, CIDR-aligned.
		if p.Addr().As16()[0] != 0x20 || p.Addr().As16()[1] != 0x01 {
			t.Fatalf("v6 prefix outside pool space: %v", p)
		}
		if p.Bits() < 33 || p.Bits() > 48 {
			t.Fatalf("unexpected v6 size: %v", p)
		}
		if p != p.Masked() {
			t.Fatalf("unaligned v6 prefix: %v", p)
		}
		if _, dup := tr.Get(p); dup {
			t.Fatalf("duplicate v6 origination: %v", p)
		}
		tr.Insert(p, 1)
		// Geolocates to exactly one country via the /32 pool entry.
		if c, ok := w.Geo.CountryOf(p.Addr()); !ok || c == "" {
			t.Fatalf("v6 prefix %v has no geolocation", p)
		}
	}
	if v6 == 0 {
		t.Fatal("IPv6 world originated no v6 prefixes")
	}
	// v6 prefixes never nest (no covered-parent games in v6).
	for _, pv := range tr.All() {
		if len(tr.Descendants(pv.Prefix)) != 0 {
			t.Fatalf("nested v6 prefixes at %v", pv.Prefix)
		}
	}
}

func TestIPv6Deterministic(t *testing.T) {
	cfg := smallCfg(Apr2021)
	cfg.IPv6 = true
	a := Build(cfg)
	b := Build(cfg)
	ap, bp := a.Graph.AllPrefixes(), b.Graph.AllPrefixes()
	if len(ap) != len(bp) {
		t.Fatal("prefix counts differ")
	}
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatalf("prefix %d differs: %v vs %v", i, ap[i], bp[i])
		}
	}
}

func TestAnchorsGetLargerV6Blocks(t *testing.T) {
	cfg := smallCfg(Apr2021)
	cfg.IPv6 = true
	w := Build(cfg)
	shortest := func(a uint32) int {
		best := 129
		for _, p := range w.Graph.Origins(asn.ASN(a)) {
			if !p.Addr().Is4() && p.Bits() < best {
				best = p.Bits()
			}
		}
		return best
	}
	telstra := shortest(1221) // AddrShare 0.30 → /44
	if telstra != 44 {
		t.Errorf("Telstra v6 block = /%d, want /44", telstra)
	}
	// A generated stub (ASN ≥ 100000; anchor "stubs" like TW's Ministry of
	// Education carve by share) with v6 gets a /48.
	for _, n := range w.Graph.ASes().All() {
		if n.Class != ClassStub || n.ASN < 100000 {
			continue
		}
		for _, p := range w.Graph.Origins(n.ASN) {
			if !p.Addr().Is4() && p.Bits() != 48 {
				t.Fatalf("stub %v v6 block = %v", n.ASN, p)
			}
		}
	}
}
