package bgp

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"

	"countryrank/internal/asn"
)

// FuzzAttrDecode drives the path-attribute decoder on its own: every MRT RIB
// entry hands it bytes from a file the program does not control. Oracle: no
// panic; UnmarshalAttrs and one reused AttrDecoder agree on error and value,
// also when the decoder decodes the input twice without a Reset, with another
// set decoded in between (the MRT scanner holds a record's entries at once,
// so no result may be overwritten by a later decode), and again after a
// Reset; and an accepted set re-encodes to a fixed point. Values are compared
// as their AppendWire bytes, so a nil and an empty segment list are the same
// value.
func FuzzAttrDecode(f *testing.F) {
	long := make(Path, 100) // 402 AS_PATH bytes: the extended-length form
	for i := range long {
		long[i] = asn.ASN(64512 + i)
	}
	nh := netip.MustParseAddr("192.0.2.1")
	setSeq := ASPath{{Type: SegmentSet, ASNs: Path{64500, 64501}}, {Type: SegmentSequence, ASNs: Path{3356, 1299}}}
	var seeds [][]byte
	for _, a := range []AttrSet{
		{Origin: OriginEGP, ASPath: setSeq, NextHop: nh},
		{},
		{Origin: OriginEGP, ASPath: setSeq},
		{ASPath: seq(long)},
		{ASPath: seq(long), NextHop: nh},
	} {
		raw, err := a.AppendWire(nil)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	for _, tc := range badAttrs {
		seeds = append(seeds, tc.raw)
	}
	for _, seed := range seeds {
		f.Add(seed)
	}
	between := seeds[0]

	f.Fuzz(func(t *testing.T, b []byte) {
		wire := func(a AttrSet) []byte {
			w, err := a.AppendWire(nil)
			if err != nil {
				t.Fatalf("decoded set %+v does not re-encode: %v", a, err)
			}
			return w
		}
		ref, refErr := UnmarshalAttrs(b)
		var want []byte
		if refErr == nil {
			want = wire(ref)
		}
		check := func(label string, got AttrSet, err error) {
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("%s: error %v, UnmarshalAttrs %v", label, err, refErr)
			}
			if refErr == nil && !bytes.Equal(wire(got), want) {
				t.Fatalf("%s: %+v, UnmarshalAttrs %+v", label, got, ref)
			}
		}
		var d AttrDecoder
		first, err1 := d.Decode(b)
		other, err := d.Decode(between)
		second, err2 := d.Decode(b)
		check("first decode", first, err1)
		check("second decode without Reset", second, err2)
		if err != nil || !bytes.Equal(wire(other), between) {
			t.Fatalf("set decoded in between: %+v (%v), want %x", other, err, between)
		}
		d.Reset() // first, other and second are dead from here on
		third, err3 := d.Decode(b)
		check("decode after Reset", third, err3)
		if refErr != nil {
			return
		}
		again, err := UnmarshalAttrs(want)
		if err != nil {
			t.Fatalf("re-encoded %x does not decode: %v", want, err)
		}
		if w := wire(again); !bytes.Equal(w, want) {
			t.Fatalf("re-encodes to %x, then to %x", want, w)
		}
	})
}
