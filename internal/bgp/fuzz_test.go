package bgp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/netx"
)

// FuzzReadMessage drives the one BGP framing entry point left, which MRT
// BGP4MP records reach with bytes from a file the program does not control.
// Oracle: no panic; an error or an incomplete buffer consumes nothing; a
// message consumes exactly its header's length, which fits in the buffer;
// and an accepted UPDATE re-marshals to bytes that decode and re-marshal to
// themselves. The decoder accepts encodings the encoder never writes (an
// extended-length bit on a short value, attributes it skips, host bits past
// a prefix length), so byte identity holds from the encoder's form on, which
// the seeds check directly.
func FuzzReadMessage(f *testing.F) {
	open, _ := (&Open{AS: 401234, HoldTime: 90, BGPID: netip.MustParseAddr("10.0.0.1")}).Marshal()
	notif, _ := (&Notification{Code: 6, Subcode: 2, Data: []byte{1, 2, 3}}).Marshal()
	keepalive := MarshalKeepalive()
	var updates [][]byte
	for _, u := range []*Update{{
		Withdrawn: []netip.Prefix{netx.MustPrefix("192.0.2.0/24")},
		ASPath:    SequencePath(Path{3356, 1299, 1221}),
		NextHop:   netip.MustParseAddr("203.0.113.1"),
		MED:       42,
		HasMED:    true,
		Announced: []netip.Prefix{netx.MustPrefix("198.51.100.0/24"), netx.MustPrefix("10.0.0.0/8")},
	}, {
		Origin:      OriginEGP,
		ASPath:      SequencePath(Path{2914, 4713}),
		V6NextHop:   netip.MustParseAddr("2001:db8::1"),
		V6Announced: []netip.Prefix{netx.MustPrefix("2001:db8:100::/48")},
		V6Withdrawn: []netip.Prefix{netx.MustPrefix("2001:db8:200::/40")},
	}} {
		raw, err := u.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		updates = append(updates, raw)
	}
	for _, raw := range updates {
		m, _, err := ReadMessage(raw)
		if err != nil {
			f.Fatal(err)
		}
		if again, err := m.Update.Marshal(); err != nil || !bytes.Equal(again, raw) {
			f.Fatalf("seed UPDATE re-marshals to %x (%v), want %x", again, err, raw)
		}
	}

	badMarker := make([]byte, 19)
	shortLength := MarshalKeepalive()
	shortLength[16], shortLength[17] = 0, 5
	longLength := MarshalKeepalive()
	longLength[16], longLength[17] = 0x10, 0x01
	unknownType := MarshalKeepalive()
	unknownType[18] = 9
	keepaliveBody, _ := wrapMessage(TypeKeepalive, []byte{1})
	for _, seed := range append(updates,
		open, notif, keepalive, append(append([]byte{}, keepalive...), open...),
		open[:len(open)-1], badMarker, shortLength, longLength, unknownType, keepaliveBody) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, buf []byte) {
		m, n, err := ReadMessage(buf)
		switch {
		case err != nil || m == nil:
			if m != nil || n != 0 {
				t.Fatalf("err %v / incomplete returned message %v, consumed %d", err, m, n)
			}
			if err == nil && len(buf) >= 19 && len(buf) >= int(binary.BigEndian.Uint16(buf[16:18])) {
				t.Fatalf("complete %d-byte buffer reported incomplete", len(buf))
			}
			return
		case n > len(buf) || n != int(binary.BigEndian.Uint16(buf[16:18])):
			t.Fatalf("consumed %d of %d bytes, header says %d", n, len(buf), binary.BigEndian.Uint16(buf[16:18]))
		}
		if m.Type != TypeUpdate {
			return
		}
		wire, err := m.Update.Marshal()
		if err != nil {
			// What the encoder refuses: IPv4 NLRI without a NEXT_HOP, or a
			// message grown past 4096 bytes by the ORIGIN and AS_PATH it
			// always writes beside NLRI.
			if (len(m.Update.Announced) > 0 && !m.Update.NextHop.IsValid()) || strings.Contains(err.Error(), "exceeds 4096") {
				return
			}
			t.Fatalf("accepted UPDATE does not re-marshal: %v", err)
		}
		again, _, err := ReadMessage(wire)
		if err != nil || again == nil || again.Update == nil {
			t.Fatalf("re-marshalled UPDATE %x does not decode: %v", wire, err)
		}
		if twice, err := again.Update.Marshal(); err != nil || !bytes.Equal(twice, wire) {
			t.Fatalf("UPDATE re-marshals to %x, then to %x (%v)", wire, twice, err)
		}
	})
}

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
		{ASPath: SequencePath(long)},
		{ASPath: SequencePath(long), NextHop: nh},
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
