package mrt

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/netx"
)

func testPeers() []Peer {
	return []Peer{
		{BGPID: netip.MustParseAddr("10.0.0.1"), Addr: netip.MustParseAddr("203.0.113.1"), AS: 3356},
		{BGPID: netip.MustParseAddr("10.0.0.2"), Addr: netip.MustParseAddr("2001:db8::7"), AS: 1299},
	}
}

// seq wraps a flat path into one AS_SEQUENCE segment, the shape ExportMRT
// writes; an empty path has no segment. The bgp, mrt and routing tests each
// keep this copy: metrictest imports routing, so none of them can import it.
func seq(p bgp.Path) bgp.ASPath {
	if len(p) == 0 {
		return nil
	}
	return bgp.ASPath{{Type: bgp.SegmentSequence, ASNs: p}}
}

func attrs(p ...uint32) bgp.AttrSet {
	path := make(bgp.Path, len(p))
	for i, a := range p {
		path[i] = asn.ASN(a)
	}
	return bgp.AttrSet{
		Origin:  bgp.OriginIGP,
		ASPath:  seq(path),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	}
}

// bgp4mpRecord is a BGP4MP_MESSAGE_AS4 record (type 16, subtype 4) carrying
// an empty UPDATE, as a collector's update archive holds it.
func bgp4mpRecord(ts uint32) []byte {
	body := []byte{
		0, 0, 0x0d, 0x1c, // peer AS 3356
		0, 0, 0x19, 0x2f, // local AS 6447
		0, 0, 0, 1, // interface index, AFI IPv4
		203, 0, 113, 1, 192, 0, 2, 1, // peer and local address
	}
	body = append(body, bytes.Repeat([]byte{0xff}, 16)...) // BGP marker
	body = append(body, 0, 23, 2, 0, 0, 0, 0)              // length, UPDATE, nothing withdrawn or announced
	rec := binary.BigEndian.AppendUint32(nil, ts)
	rec = binary.BigEndian.AppendUint16(rec, 16)
	rec = binary.BigEndian.AppendUint16(rec, 4)
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(body)))
	return append(rec, body...)
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1617235200) // 2021-04-01
	if err := w.WritePeerIndexTable(netip.MustParseAddr("198.51.100.1"), "route-views.test", testPeers()); err != nil {
		t.Fatalf("WritePeerIndexTable: %v", err)
	}
	if err := w.WriteRIB(netx.MustPrefix("10.1.0.0/16"), []RIBEntry{
		{PeerIndex: 0, OriginatedAt: 100, Attrs: attrs(3356, 1221)},
		{PeerIndex: 1, OriginatedAt: 200, Attrs: attrs(1299, 4826, 1221)},
	}); err != nil {
		t.Fatalf("WriteRIB v4: %v", err)
	}
	if err := w.WriteRIB(netx.MustPrefix("2001:db8:5::/48"), []RIBEntry{
		{PeerIndex: 1, OriginatedAt: 300, Attrs: bgp.AttrSet{ASPath: seq(bgp.Path{2914, 4713})}},
	}); err != nil {
		t.Fatalf("WriteRIB v6: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	r := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("Next 1: %v", err)
	}
	pit := rec.PeerIndexTable
	if pit == nil {
		t.Fatal("first record should be PEER_INDEX_TABLE")
	}
	if rec.Timestamp != 1617235200 {
		t.Errorf("timestamp = %d", rec.Timestamp)
	}
	if pit.ViewName != "route-views.test" || pit.CollectorID != netip.MustParseAddr("198.51.100.1") {
		t.Errorf("pit header = %+v", pit)
	}
	if len(pit.Peers) != 2 {
		t.Fatalf("peers = %d", len(pit.Peers))
	}
	if pit.Peers[0].AS != 3356 || pit.Peers[0].Addr != netip.MustParseAddr("203.0.113.1") {
		t.Errorf("peer 0 = %+v", pit.Peers[0])
	}
	if pit.Peers[1].Addr != netip.MustParseAddr("2001:db8::7") {
		t.Errorf("peer 1 v6 addr = %+v", pit.Peers[1])
	}

	rec, err = r.Next()
	if err != nil {
		t.Fatalf("Next 2: %v", err)
	}
	rib := rec.RIB
	if rib == nil || rib.Prefix != netx.MustPrefix("10.1.0.0/16") || rib.Seq != 0 {
		t.Fatalf("rib 1 = %+v", rib)
	}
	if len(rib.Entries) != 2 {
		t.Fatalf("entries = %d", len(rib.Entries))
	}
	if !rib.Entries[1].Attrs.ASPath.AppendFlat(nil).Equal(bgp.Path{1299, 4826, 1221}) {
		t.Errorf("entry path = %v", rib.Entries[1].Attrs.ASPath.AppendFlat(nil))
	}
	if rib.Entries[0].OriginatedAt != 100 {
		t.Errorf("originated = %d", rib.Entries[0].OriginatedAt)
	}

	rec, err = r.Next()
	if err != nil {
		t.Fatalf("Next 3: %v", err)
	}
	if rec.RIB == nil || rec.RIB.Prefix != netx.MustPrefix("2001:db8:5::/48") || rec.RIB.Seq != 1 {
		t.Fatalf("rib 2 = %+v", rec.RIB)
	}

	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestWriterOrderEnforced(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	if err := w.WriteRIB(netx.MustPrefix("10.0.0.0/8"), nil); err == nil {
		t.Error("RIB before PEER_INDEX_TABLE must fail")
	}
	if err := w.WritePeerIndexTable(netip.MustParseAddr("10.0.0.1"), "v", nil); err != nil {
		t.Fatalf("pit: %v", err)
	}
	if err := w.WritePeerIndexTable(netip.MustParseAddr("10.0.0.1"), "v", nil); err == nil {
		t.Error("second PEER_INDEX_TABLE must fail")
	}
}

// recordedStream builds a dump of a peer table and three RIB records and
// returns both the bytes and the offset of each record, so tests can corrupt
// precise positions.
func recordedStream(t *testing.T) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	var offsets []int
	w := NewWriter(&buf, 1617235200)
	flush := func() {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	offsets = append(offsets, buf.Len())
	if err := w.WritePeerIndexTable(netip.MustParseAddr("198.51.100.1"), "rv.errors", testPeers()); err != nil {
		t.Fatal(err)
	}
	flush()
	for i, pfx := range []string{"10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"} {
		offsets = append(offsets, buf.Len())
		if err := w.WriteRIB(netx.MustPrefix(pfx), []RIBEntry{
			{PeerIndex: uint16(i % 2), OriginatedAt: 100, Attrs: attrs(3356, 1221)},
		}); err != nil {
			t.Fatal(err)
		}
		flush()
	}
	return buf.Bytes(), offsets
}

// drain reads records until the stream ends or fails, naming each one read:
// "PIT" for a peer table, the prefix for a RIB. A clean end returns a nil
// error.
func drain(t *testing.T, r *Reader) ([]string, error) {
	t.Helper()
	var read []string
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return read, nil
		}
		if err != nil {
			return read, err
		}
		if rec.RIB != nil {
			read = append(read, rec.RIB.Prefix.String())
		} else {
			read = append(read, "PIT")
		}
	}
}

// TestBGP4MPInterleavedWithRIB pins what the reader does with an update
// record between RIB records: it stops at it with an error, after the RIB
// before it.
func TestBGP4MPInterleavedWithRIB(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 7)
	if err := w.WritePeerIndexTable(netip.MustParseAddr("10.9.9.9"), "x", testPeers()); err != nil {
		t.Fatal(err)
	}
	for i, pfx := range []string{"10.1.0.0/16", "10.2.0.0/16"} {
		if err := w.WriteRIB(netx.MustPrefix(pfx), []RIBEntry{{PeerIndex: 0, Attrs: attrs(3356, 1221)}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			buf.Write(bgp4mpRecord(7))
		}
	}
	read, err := drain(t, NewReader(bytes.NewReader(buf.Bytes())))
	if want := "mrt: unsupported record type 16"; err == nil || err.Error() != want || !slices.Equal(read, []string{"PIT", "10.1.0.0/16"}) {
		t.Fatalf("read %v then %v, want PIT, 10.1.0.0/16 then %q", read, err, want)
	}
}

// TestReaderErrors pins, for each malformed input, the error the reader
// stops with and the records it read before it. A damaged dump has no
// partial reading: the error is the whole answer.
func TestReaderErrors(t *testing.T) {
	stream, offsets := recordedStream(t)
	splice := func(at int, b []byte) []byte {
		return append(append(append([]byte(nil), stream[:at]...), b...), stream[at:]...)
	}
	lying := bytes.Clone(stream)
	binary.BigEndian.PutUint32(lying[offsets[2]+8:], 1<<30)
	v1 := make([]byte, 12)
	v1[5] = 12 // TABLE_DUMP (v1)

	for _, tc := range []struct {
		name string
		in   []byte
		read []string
		err  string
	}{
		{"TABLE_DUMP v1", v1, nil, "mrt: unsupported record type 12"},
		{"truncated header", stream[:5], nil, "mrt: header: unexpected EOF"},
		{"truncated peer table", stream[:offsets[1]-3], nil, "mrt: body: unexpected EOF"},
		{"header without body", stream[:offsets[1]+12], []string{"PIT"}, "mrt: body: EOF"},
		// 100 bytes wedged between the first and second RIB record read as a
		// header of type 0xAAAA.
		{"mid-stream garbage", splice(offsets[2], bytes.Repeat([]byte{0xAA}, 100)),
			[]string{"PIT", "10.1.0.0/16"}, "mrt: unsupported record type 43690"},
		{"lying record length", lying,
			[]string{"PIT", "10.1.0.0/16"}, "mrt: implausible record length 1073741824"},
		{"truncated tail", stream[:offsets[3]+(len(stream)-offsets[3])/2],
			[]string{"PIT", "10.1.0.0/16", "10.2.0.0/16"}, "mrt: body: unexpected EOF"},
		{"BGP4MP between RIBs", splice(offsets[2], bgp4mpRecord(1617235200)),
			[]string{"PIT", "10.1.0.0/16"}, "mrt: unsupported record type 16"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			read, err := drain(t, NewReader(bytes.NewReader(tc.in)))
			if err == nil || err.Error() != tc.err || !slices.Equal(read, tc.read) {
				t.Fatalf("read %v then %v, want %v then %q", read, err, tc.read, tc.err)
			}
		})
	}
}

func TestRoundTripRandomRIBs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	w := NewWriter(&buf, 7)
	peers := make([]Peer, 30)
	for i := range peers {
		peers[i] = Peer{
			BGPID: netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}),
			Addr:  netip.AddrFrom4([4]byte{172, 16, 0, byte(i + 1)}),
			AS:    asn.ASN(rng.Intn(1 << 17)),
		}
	}
	if err := w.WritePeerIndexTable(netip.MustParseAddr("10.9.9.9"), "rand", peers); err != nil {
		t.Fatal(err)
	}
	type wantRIB struct {
		pfx     netip.Prefix
		entries []RIBEntry
	}
	var want []wantRIB
	for i := 0; i < 100; i++ {
		a := rng.Uint32()
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}), 8+rng.Intn(25)).Masked()
		n := 1 + rng.Intn(5)
		es := make([]RIBEntry, n)
		for j := range es {
			pl := 1 + rng.Intn(6)
			p := make(bgp.Path, pl)
			for k := range p {
				p[k] = asn.ASN(1 + rng.Intn(1<<18))
			}
			es[j] = RIBEntry{
				PeerIndex:    uint16(rng.Intn(len(peers))),
				OriginatedAt: rng.Uint32(),
				Attrs:        bgp.AttrSet{Origin: bgp.OriginCode(rng.Intn(3)), ASPath: seq(p)},
			}
		}
		want = append(want, wantRIB{pfx, es})
		if err := w.WriteRIB(pfx, es); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()

	r := NewReader(&buf)
	if _, err := r.Next(); err != nil { // PIT
		t.Fatal(err)
	}
	for i, wr := range want {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("rib %d: %v", i, err)
		}
		rib := rec.RIB
		if rib.Prefix != wr.pfx || int(rib.Seq) != i || len(rib.Entries) != len(wr.entries) {
			t.Fatalf("rib %d mismatch: %+v", i, rib)
		}
		for j, e := range rib.Entries {
			we := wr.entries[j]
			if e.PeerIndex != we.PeerIndex || e.OriginatedAt != we.OriginatedAt ||
				!e.Attrs.ASPath.AppendFlat(nil).Equal(we.Attrs.ASPath.AppendFlat(nil)) || e.Attrs.Origin != we.Attrs.Origin {
				t.Fatalf("rib %d entry %d mismatch", i, j)
			}
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}
