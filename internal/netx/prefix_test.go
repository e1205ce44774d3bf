package netx

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestAddressWeight(t *testing.T) {
	cases := []struct {
		pfx  string
		want uint64
	}{
		{"10.0.0.0/8", 1 << 24},
		{"192.168.1.0/24", 256},
		{"192.168.1.1/32", 1},
		{"0.0.0.0/0", 1 << 32},
		{"2001:db8::/32", 1 << 32},
		{"2001:db8::/48", 1 << 16},
		{"2001:db8::/64", 1},
		{"2001:db8::1/128", 1},
	}
	for _, c := range cases {
		if got := AddressWeight(MustPrefix(c.pfx)); got != c.want {
			t.Errorf("AddressWeight(%s) = %d, want %d", c.pfx, got, c.want)
		}
	}
	if AddressWeight(netip.Prefix{}) != 0 {
		t.Error("AddressWeight of invalid prefix should be 0")
	}
}

// overlaps reports whether the two prefixes share any address.
func overlaps(a, b netip.Prefix) bool {
	return Covers(a, b) || Covers(b, a)
}

func TestCoversAndOverlaps(t *testing.T) {
	p8 := MustPrefix("10.0.0.0/8")
	p16 := MustPrefix("10.1.0.0/16")
	other := MustPrefix("11.0.0.0/8")
	v6 := MustPrefix("2001:db8::/32")

	if !Covers(p8, p16) {
		t.Error("10/8 should cover 10.1/16")
	}
	if Covers(p16, p8) {
		t.Error("10.1/16 should not cover 10/8")
	}
	if !Covers(p8, p8) {
		t.Error("prefix should cover itself")
	}
	if Covers(p8, other) || overlaps(p8, other) {
		t.Error("10/8 and 11/8 are disjoint")
	}
	if Covers(p8, v6) || Covers(v6, p8) {
		t.Error("families never cover each other")
	}
	if !overlaps(p16, p8) {
		t.Error("overlap should be symmetric in coverage")
	}
}

func TestHalves(t *testing.T) {
	lo, hi := Halves(MustPrefix("10.0.0.0/8"))
	if lo != MustPrefix("10.0.0.0/9") || hi != MustPrefix("10.128.0.0/9") {
		t.Errorf("Halves(10/8) = %v, %v", lo, hi)
	}
	lo, hi = Halves(MustPrefix("192.168.0.0/23"))
	if lo != MustPrefix("192.168.0.0/24") || hi != MustPrefix("192.168.1.0/24") {
		t.Errorf("Halves(192.168.0/23) = %v, %v", lo, hi)
	}
	lo, hi = Halves(MustPrefix("2001:db8::/32"))
	if lo != MustPrefix("2001:db8::/33") || hi != MustPrefix("2001:db8:8000::/33") {
		t.Errorf("Halves v6 = %v, %v", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("Halves of /32 should panic")
		}
	}()
	Halves(MustPrefix("1.2.3.4/32"))
}

func TestHalvesPartition(t *testing.T) {
	// Property: the two halves are disjoint, both covered by the parent, and
	// their weights sum to the parent's weight.
	f := func(a uint32, bits uint8) bool {
		b := int(bits % 32) // 0..31 so halving is legal
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}), b).Masked()
		lo, hi := Halves(p)
		return Covers(p, lo) && Covers(p, hi) && !overlaps(lo, hi) &&
			AddressWeight(lo)+AddressWeight(hi) == AddressWeight(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparePrefixes(t *testing.T) {
	ordered := []string{"9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16", "2001:db8::/32"}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := ComparePrefixes(MustPrefix(ordered[i]), MustPrefix(ordered[j]))
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestMustPrefixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustPrefix should panic on junk")
		}
	}()
	MustPrefix("not-a-prefix")
}

// randomV4Prefix returns a random masked IPv4 prefix with length in [minLen, 32].
func randomV4Prefix(rng *rand.Rand, minLen int) netip.Prefix {
	a := rng.Uint32()
	bits := minLen + rng.Intn(33-minLen)
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}), bits).Masked()
}
