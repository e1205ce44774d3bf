package mrt

import (
	"bytes"
	"io"
	"net/netip"
	"testing"

	"countryrank/internal/bgp"
	"countryrank/internal/netx"
)

func sampleUpdate(t *testing.T) []byte {
	t.Helper()
	u := &bgp.Update{
		ASPath:    bgp.SequencePath(bgp.Path{100001, 3356, 1221}),
		NextHop:   netip.MustParseAddr("10.0.0.1"),
		Announced: []netip.Prefix{netx.MustPrefix("192.0.2.0/24")},
	}
	raw, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestBGP4MPRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 111)
	raw := sampleUpdate(t)
	if err := w.WriteBGP4MP(100001, 6447,
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("192.0.2.1"), raw); err != nil {
		t.Fatal(err)
	}
	w.timestamp = 222 // a stream spanning time
	if err := w.WriteBGP4MP(100002, 6447,
		netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2"), raw); err != nil {
		t.Fatal(err)
	}
	w.Flush()

	r := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	m := rec.BGP4MP
	if m == nil || rec.Timestamp != 111 {
		t.Fatalf("rec = %+v", rec)
	}
	if m.PeerAS != 100001 || m.LocalAS != 6447 || m.PeerIP != netip.MustParseAddr("10.0.0.1") {
		t.Errorf("header = %+v", m)
	}
	if m.Message == nil || m.Message.Update == nil {
		t.Fatal("no update decoded")
	}
	if !m.Message.Update.ASPath.Flatten().Equal(bgp.Path{100001, 3356, 1221}) {
		t.Errorf("path = %v", m.Message.Update.ASPath.Flatten())
	}

	rec, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Timestamp != 222 || rec.BGP4MP.PeerIP != netip.MustParseAddr("2001:db8::1") {
		t.Errorf("v6 record = %+v", rec.BGP4MP)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBGP4MPMixedFamiliesRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	err := w.WriteBGP4MP(1, 2, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("2001:db8::1"), sampleUpdate(t))
	if err == nil {
		t.Error("mixed address families must be rejected")
	}
}

func TestBGP4MPInterleavedWithRIB(t *testing.T) {
	// Update records may interleave with TABLE_DUMP_V2 in one stream.
	var buf bytes.Buffer
	w := NewWriter(&buf, 7)
	if err := w.WritePeerIndexTable(netip.MustParseAddr("10.9.9.9"), "x", testPeers()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBGP4MP(3356, 6447, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), sampleUpdate(t)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRIB(netx.MustPrefix("10.1.0.0/16"), []RIBEntry{
		{PeerIndex: 0, Attrs: attrs(3356, 1221)},
	}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := NewReader(&buf)
	kinds := []string{}
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case rec.PeerIndexTable != nil:
			kinds = append(kinds, "pit")
		case rec.BGP4MP != nil:
			kinds = append(kinds, "update")
		case rec.RIB != nil:
			kinds = append(kinds, "rib")
		}
	}
	want := []string{"pit", "update", "rib"}
	if len(kinds) != 3 {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}

func TestDecodeBGP4MPTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	w.WriteBGP4MP(1, 2, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), sampleUpdate(t))
	w.Flush()
	all := buf.Bytes()
	// Rewrite the declared length to chop the BGP message mid-way, keeping
	// the MRT framing self-consistent.
	for cut := 13; cut < 20; cut++ {
		hdr := append([]byte{}, all[:12]...)
		body := all[12 : 12+cut]
		hdr[8], hdr[9], hdr[10], hdr[11] = 0, 0, byte(cut>>8), byte(cut)
		if _, err := NewReader(bytes.NewReader(append(hdr, body...))).Next(); err == nil {
			t.Fatalf("cut %d should fail", cut)
		}
	}
}
