package netx

import (
	"math/rand"
	"net/netip"
	"testing"
)

func TestTrieInsertGet(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustPrefix("10.0.0.0/8"), 1)
	tr.Insert(MustPrefix("10.1.0.0/16"), 2)
	tr.Insert(MustPrefix("2001:db8::/32"), 3)
	tr.Insert(MustPrefix("10.0.0.0/8"), 10) // overwrite

	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if v, ok := tr.Get(MustPrefix("10.0.0.0/8")); !ok || v != 10 {
		t.Errorf("Get(10/8) = %d, %v", v, ok)
	}
	if v, ok := tr.Get(MustPrefix("10.1.0.0/16")); !ok || v != 2 {
		t.Errorf("Get(10.1/16) = %d, %v", v, ok)
	}
	if _, ok := tr.Get(MustPrefix("10.2.0.0/16")); ok {
		t.Error("Get of absent prefix should fail")
	}
	if v, ok := tr.Get(MustPrefix("2001:db8::/32")); !ok || v != 3 {
		t.Errorf("Get(v6) = %d, %v", v, ok)
	}
}

func TestTrieLookupLongestMatch(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustPrefix("10.0.0.0/8"), "eight")
	tr.Insert(MustPrefix("10.1.0.0/16"), "sixteen")
	tr.Insert(MustPrefix("10.1.2.0/24"), "twentyfour")

	cases := []struct {
		addr string
		want string
		pfx  string
	}{
		{"10.1.2.3", "twentyfour", "10.1.2.0/24"},
		{"10.1.9.9", "sixteen", "10.1.0.0/16"},
		{"10.200.0.1", "eight", "10.0.0.0/8"},
	}
	for _, c := range cases {
		pfx, v, ok := tr.Lookup(netip.MustParseAddr(c.addr))
		if !ok || v != c.want || pfx != MustPrefix(c.pfx) {
			t.Errorf("Lookup(%s) = %v,%q,%v; want %q via %s", c.addr, pfx, v, ok, c.want, c.pfx)
		}
	}
	if _, _, ok := tr.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Error("Lookup outside stored space should miss")
	}
	if _, _, ok := tr.Lookup(netip.MustParseAddr("2001:db8::1")); ok {
		t.Error("v6 lookup with no v6 entries should miss")
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustPrefix("0.0.0.0/0"), "default")
	pfx, v, ok := tr.Lookup(netip.MustParseAddr("203.0.113.7"))
	if !ok || v != "default" || pfx != MustPrefix("0.0.0.0/0") {
		t.Errorf("default route lookup = %v,%q,%v", pfx, v, ok)
	}
}

func TestTrieDescendants(t *testing.T) {
	var tr Trie[int]
	for i, s := range []string{"10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16", "10.1.2.0/24", "11.0.0.0/8"} {
		tr.Insert(MustPrefix(s), i)
	}
	got := tr.Descendants(MustPrefix("10.0.0.0/8"))
	want := []netip.Prefix{MustPrefix("10.0.0.0/16"), MustPrefix("10.1.0.0/16"), MustPrefix("10.1.2.0/24")}
	if len(got) != len(want) {
		t.Fatalf("Descendants = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Descendants[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if d := tr.Descendants(MustPrefix("11.0.0.0/8")); len(d) != 0 {
		t.Errorf("11/8 should have no descendants, got %v", d)
	}
	if d := tr.Descendants(MustPrefix("12.0.0.0/8")); len(d) != 0 {
		t.Errorf("absent prefix should have no descendants, got %v", d)
	}
}

func TestTrieAllCanonicalOrder(t *testing.T) {
	var tr Trie[int]
	in := []string{"11.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16", "2001:db8::/32"}
	for i, s := range in {
		tr.Insert(MustPrefix(s), i)
	}
	all := tr.All()
	if len(all) != 4 {
		t.Fatalf("All returned %d entries", len(all))
	}
	for i := 1; i < len(all); i++ {
		if ComparePrefixes(all[i-1].Prefix, all[i].Prefix) >= 0 {
			t.Errorf("All not in canonical order: %v before %v", all[i-1].Prefix, all[i].Prefix)
		}
	}
}

// TestTrieLookupMatchesNaive cross-checks longest-prefix match against a
// brute-force scan on random inputs.
func TestTrieLookupMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var tr Trie[int]
		var pfxs []netip.Prefix
		for i := 0; i < 60; i++ {
			p := randomV4Prefix(rng, 4)
			pfxs = append(pfxs, p)
			tr.Insert(p, i)
		}
		for q := 0; q < 200; q++ {
			a := rng.Uint32()
			addr := netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
			bestLen := -1
			for _, p := range pfxs {
				if p.Contains(addr) && p.Bits() > bestLen {
					bestLen = p.Bits()
				}
			}
			pfx, _, ok := tr.Lookup(addr)
			switch {
			case bestLen < 0 && ok:
				t.Fatalf("Lookup(%v) hit %v, naive missed", addr, pfx)
			case bestLen >= 0 && !ok:
				t.Fatalf("Lookup(%v) missed, naive found /%d", addr, bestLen)
			case ok && pfx.Bits() != bestLen:
				t.Fatalf("Lookup(%v) = /%d, naive /%d", addr, pfx.Bits(), bestLen)
			}
		}
	}
}
