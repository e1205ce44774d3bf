package bgp

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"strings"
	"testing"

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
