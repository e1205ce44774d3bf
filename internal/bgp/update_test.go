package bgp

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/netx"
)

func TestUpdateRoundTrip(t *testing.T) {
	u := &Update{
		Withdrawn: []netip.Prefix{netx.MustPrefix("192.0.2.0/24")},
		Origin:    OriginIGP,
		ASPath:    SequencePath(path(3356, 1299, 1221)),
		NextHop:   netip.MustParseAddr("203.0.113.1"),
		MED:       42,
		HasMED:    true,
		Announced: []netip.Prefix{netx.MustPrefix("198.51.100.0/24"), netx.MustPrefix("10.0.0.0/8")},
	}
	raw, err := u.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalUpdate(raw)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
		t.Errorf("withdrawn = %v", got.Withdrawn)
	}
	if got.Origin != u.Origin {
		t.Errorf("origin = %v", got.Origin)
	}
	if !got.ASPath.Flatten().Equal(u.ASPath.Flatten()) {
		t.Errorf("path = %v, want %v", got.ASPath.Flatten(), u.ASPath.Flatten())
	}
	if got.NextHop != u.NextHop {
		t.Errorf("next hop = %v", got.NextHop)
	}
	if !got.HasMED || got.MED != 42 {
		t.Errorf("MED = %v,%v", got.MED, got.HasMED)
	}
	if len(got.Announced) != 2 || got.Announced[0] != u.Announced[0] || got.Announced[1] != u.Announced[1] {
		t.Errorf("announced = %v", got.Announced)
	}
}

func TestUpdateV6RoundTrip(t *testing.T) {
	u := &Update{
		Origin:      OriginEGP,
		ASPath:      SequencePath(path(2914, 4713)),
		V6NextHop:   netip.MustParseAddr("2001:db8::1"),
		V6Announced: []netip.Prefix{netx.MustPrefix("2001:db8:100::/48")},
	}
	raw, err := u.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalUpdate(raw)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.V6NextHop != u.V6NextHop {
		t.Errorf("v6 next hop = %v", got.V6NextHop)
	}
	if len(got.V6Announced) != 1 || got.V6Announced[0] != u.V6Announced[0] {
		t.Errorf("v6 announced = %v", got.V6Announced)
	}
	if !got.ASPath.Flatten().Equal(path(2914, 4713)) {
		t.Errorf("path = %v", got.ASPath.Flatten())
	}
}

func TestASSetRoundTrip(t *testing.T) {
	u := &Update{
		Origin: OriginIncomplete,
		ASPath: ASPath{
			{Type: SegmentSequence, ASNs: []asn.ASN{100, 200}},
			{Type: SegmentSet, ASNs: []asn.ASN{300, 400}},
		},
		NextHop:   netip.MustParseAddr("10.0.0.1"),
		Announced: []netip.Prefix{netx.MustPrefix("172.16.0.0/12")},
	}
	raw, err := u.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalUpdate(raw)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(got.ASPath) != 2 || got.ASPath[0].Type != SegmentSequence || got.ASPath[1].Type != SegmentSet {
		t.Fatalf("segments = %+v", got.ASPath)
	}
	if !got.ASPath.Flatten().Equal(path(100, 200, 300, 400)) {
		t.Errorf("flatten = %v", got.ASPath.Flatten())
	}
}

func TestMarshalErrors(t *testing.T) {
	// IPv4 NLRI without an IPv4 next hop.
	u := &Update{
		ASPath:    SequencePath(path(1)),
		Announced: []netip.Prefix{netx.MustPrefix("10.0.0.0/8")},
	}
	if _, err := u.Marshal(); err == nil {
		t.Error("expected error for missing next hop")
	}
	// v6 NLRI with v4 next hop.
	u = &Update{
		ASPath:      SequencePath(path(1)),
		V6NextHop:   netip.MustParseAddr("10.0.0.1"),
		V6Announced: []netip.Prefix{netx.MustPrefix("2001:db8::/32")},
	}
	if _, err := u.Marshal(); err == nil {
		t.Error("expected error for v4 next hop on v6 NLRI")
	}
	// Oversized segment.
	big := make([]asn.ASN, 256)
	u = &Update{
		ASPath:    ASPath{{Type: SegmentSequence, ASNs: big}},
		NextHop:   netip.MustParseAddr("10.0.0.1"),
		Announced: []netip.Prefix{netx.MustPrefix("10.0.0.0/8")},
	}
	if _, err := u.Marshal(); err == nil {
		t.Error("expected error for oversized segment")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalUpdate(nil); err == nil {
		t.Error("nil buffer should fail")
	}
	u := &Update{ASPath: SequencePath(path(1)), NextHop: netip.MustParseAddr("1.1.1.1"),
		Announced: []netip.Prefix{netx.MustPrefix("10.0.0.0/8")}}
	raw, _ := u.Marshal()

	bad := append([]byte(nil), raw...)
	bad[0] = 0 // corrupt marker
	if _, err := UnmarshalUpdate(bad); err == nil {
		t.Error("bad marker should fail")
	}

	bad = append([]byte(nil), raw...)
	bad[18] = TypeKeepalive
	if _, err := UnmarshalUpdate(bad); err == nil {
		t.Error("non-UPDATE type should fail")
	}

	// Truncated body.
	if _, err := UnmarshalUpdate(raw[:20]); err == nil {
		t.Error("truncation should fail (length mismatch)")
	}

	// The malformed attribute strings UnmarshalAttrs refuses, framed as the
	// path attributes of an otherwise well-formed UPDATE.
	for _, tc := range badAttrs {
		msg := append([]byte(nil), marker...)
		msg = binary.BigEndian.AppendUint16(msg, uint16(19+2+2+len(tc.raw)))
		msg = append(msg, TypeUpdate, 0, 0) // no withdrawn routes
		msg = binary.BigEndian.AppendUint16(msg, uint16(len(tc.raw)))
		msg = append(msg, tc.raw...)
		if got, err := UnmarshalUpdate(msg); err == nil {
			t.Errorf("%s: UnmarshalUpdate accepted attributes % x as %+v", tc.name, tc.raw, got)
		}
	}
}

// TestUpdateRoundTripRandom fuzzes the codec with random valid updates.
func TestUpdateRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(8)
		p := make(Path, n)
		for j := range p {
			p[j] = asn.ASN(1 + rng.Intn(1<<20))
		}
		nPfx := 1 + rng.Intn(5)
		pfxs := make([]netip.Prefix, nPfx)
		for j := range pfxs {
			a := rng.Uint32()
			bits := 8 + rng.Intn(25)
			pfxs[j] = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}), bits).Masked()
		}
		u := &Update{
			Origin:    OriginCode(rng.Intn(3)),
			ASPath:    SequencePath(p),
			NextHop:   netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(255) + 1)}),
			Announced: pfxs,
		}
		raw, err := u.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		got, err := UnmarshalUpdate(raw)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if !got.ASPath.Flatten().Equal(p) {
			t.Fatalf("path mismatch: %v vs %v", got.ASPath.Flatten(), p)
		}
		if len(got.Announced) != len(pfxs) {
			t.Fatalf("announced count mismatch")
		}
		for j := range pfxs {
			if got.Announced[j] != pfxs[j] {
				t.Fatalf("prefix %d: %v vs %v", j, got.Announced[j], pfxs[j])
			}
		}
	}
}
