package bgp

import (
	"net/netip"
	"testing"

	"countryrank/internal/asn"
)

func TestAttrSetRoundTrip(t *testing.T) {
	a := AttrSet{
		Origin:  OriginIGP,
		ASPath:  seq(path(3356, 1299, 12389)),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	}
	raw, err := a.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalAttrs(raw)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Origin != a.Origin || got.NextHop != a.NextHop {
		t.Errorf("got %+v", got)
	}
	if !got.ASPath.AppendFlat(nil).Equal(path(3356, 1299, 12389)) {
		t.Errorf("path = %v", got.ASPath.AppendFlat(nil))
	}
}

func TestAttrSetNoNextHop(t *testing.T) {
	a := AttrSet{Origin: OriginIncomplete, ASPath: seq(path(1))}
	raw, err := a.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalAttrs(raw)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.NextHop.IsValid() {
		t.Error("next hop should be absent")
	}
}

func TestAttrSetV6NextHopRejected(t *testing.T) {
	a := AttrSet{ASPath: seq(path(1)), NextHop: netip.MustParseAddr("2001:db8::1")}
	if _, err := a.Marshal(); err == nil {
		t.Error("v6 next hop must be rejected")
	}
}

func TestUnmarshalAttrsTruncated(t *testing.T) {
	a := AttrSet{Origin: OriginIGP, ASPath: seq(path(1, 2, 3))}
	raw, _ := a.Marshal()
	for cut := 1; cut < len(raw); cut++ {
		if _, err := UnmarshalAttrs(raw[:cut]); err == nil {
			// Some truncations land on attribute boundaries and legitimately
			// parse as a shorter attribute list; those must still decode to a
			// subset, never garbage. Verify the path is a prefix of the input.
			got, _ := UnmarshalAttrs(raw[:cut])
			p := got.ASPath.AppendFlat(nil)
			if len(p) > 3 {
				t.Fatalf("cut %d produced oversized path %v", cut, p)
			}
		}
	}
}

// badAttrs are path-attribute byte strings no decoder may accept: both
// UnmarshalAttrs and AttrDecoder.Decode must refuse each.
var badAttrs = []struct {
	name string
	raw  []byte
}{
	{"two-byte header", []byte{flagTransit, attrOrigin}},
	{"ext-len flag, three bytes", []byte{flagTransit | flagExtLen, attrASPath, 0}},
	{"value shorter than its length", []byte{flagTransit, attrOrigin, 2, 0}},
	{"ext-len value shorter than its length", []byte{flagTransit | flagExtLen, attrASPath, 1, 0, 2, 1}},
	{"ORIGIN of two bytes", []byte{flagTransit, attrOrigin, 2, 0, 0}},
	{"NEXT_HOP of three bytes", []byte{flagTransit, attrNextHop, 3, 10, 0, 0}},
	{"AS_PATH segment header cut", []byte{flagTransit, attrASPath, 1, SegmentSequence}},
	{"AS_PATH segment cut", []byte{flagTransit, attrASPath, 5, SegmentSequence, 2, 0, 0, 0}},
	{"unknown AS_PATH segment type", []byte{flagTransit, attrASPath, 6, 9, 1, 0, 0, 0, 1}},
}

func TestUnmarshalAttrsErrors(t *testing.T) {
	var d AttrDecoder
	for _, tc := range badAttrs {
		if got, err := UnmarshalAttrs(tc.raw); err == nil {
			t.Errorf("%s: UnmarshalAttrs accepted % x as %+v", tc.name, tc.raw, got)
		}
		if got, err := d.Decode(tc.raw); err == nil {
			t.Errorf("%s: AttrDecoder.Decode accepted % x as %+v", tc.name, tc.raw, got)
		}
	}
}

func TestUnmarshalAttrsLongPath(t *testing.T) {
	// A path long enough to need the extended-length attribute flag.
	long := make(Path, 300)
	for i := range long {
		long[i] = asn.ASN(1000 + i)
	}
	// Split into two segments of ≤255.
	ap := ASPath{
		{Type: SegmentSequence, ASNs: long[:200]},
		{Type: SegmentSequence, ASNs: long[200:]},
	}
	a := AttrSet{ASPath: ap}
	raw, err := a.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalAttrs(raw)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !got.ASPath.AppendFlat(nil).Equal(long) {
		t.Error("long path did not round-trip")
	}
}

func TestASSetRoundTrip(t *testing.T) {
	a := AttrSet{
		Origin: OriginIncomplete,
		ASPath: ASPath{
			{Type: SegmentSequence, ASNs: []asn.ASN{100, 200}},
			{Type: SegmentSet, ASNs: []asn.ASN{300, 400}},
		},
		NextHop: netip.MustParseAddr("10.0.0.1"),
	}
	raw, err := a.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalAttrs(raw)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(got.ASPath) != 2 || got.ASPath[0].Type != SegmentSequence || got.ASPath[1].Type != SegmentSet {
		t.Fatalf("segments = %+v", got.ASPath)
	}
	if !got.ASPath.AppendFlat(nil).Equal(path(100, 200, 300, 400)) {
		t.Errorf("flat = %v", got.ASPath.AppendFlat(nil))
	}
}

func TestMarshalErrors(t *testing.T) {
	a := AttrSet{ASPath: ASPath{{Type: SegmentSequence, ASNs: make([]asn.ASN, 256)}}}
	if _, err := a.Marshal(); err == nil {
		t.Error("expected error for a segment of 256 ASNs")
	}
}
