package mrt

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"strings"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/netx"
)

// Next is Scan without storage reuse: every record is freshly allocated and
// its attribute sets are decoded by bgp.UnmarshalAttrs, the reference Scan
// is compared against. Records of types other than TABLE_DUMP_V2 are
// rejected.
func (r *Reader) Next() (*Record, error) { return r.next(false) }

// TestScanMatchesNext drives both decode paths over a multi-record dump and
// requires identical decoded content record by record, and the same error
// at the BGP4MP record that ends it.
func TestScanMatchesNext(t *testing.T) {
	raw := corpusStream(t)

	fresh := NewReader(bytes.NewReader(raw))
	reuse := NewReader(bytes.NewReader(raw))
	n := 0
	for {
		a, errA := fresh.Next()
		b, errB := reuse.Scan()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("record %d: Next err %v, Scan err %v", n, errA, errB)
		}
		if errA != nil {
			if want := "mrt: unsupported record type 16"; errA.Error() != want || errB.Error() != want {
				t.Fatalf("record %d: Next err %v, Scan err %v, want %q", n, errA, errB, want)
			}
			break
		}
		if a.Timestamp != b.Timestamp {
			t.Fatalf("record %d timestamp: %d vs %d", n, a.Timestamp, b.Timestamp)
		}
		switch {
		case a.PeerIndexTable != nil:
			bp := b.PeerIndexTable
			if bp == nil || bp.ViewName != a.PeerIndexTable.ViewName ||
				len(bp.Peers) != len(a.PeerIndexTable.Peers) {
				t.Fatalf("record %d PIT mismatch", n)
			}
			for i := range bp.Peers {
				if bp.Peers[i] != a.PeerIndexTable.Peers[i] {
					t.Fatalf("record %d peer %d mismatch", n, i)
				}
			}
		case a.RIB != nil:
			if b.RIB == nil || b.RIB.Prefix != a.RIB.Prefix ||
				len(b.RIB.Entries) != len(a.RIB.Entries) {
				t.Fatalf("record %d RIB mismatch", n)
			}
			for i := range a.RIB.Entries {
				ea, eb := a.RIB.Entries[i], b.RIB.Entries[i]
				if ea.PeerIndex != eb.PeerIndex ||
					!ea.Attrs.ASPath.AppendFlat(nil).Equal(eb.Attrs.ASPath.AppendFlat(nil)) {
					t.Fatalf("record %d entry %d mismatch", n, i)
				}
			}
		}
		n++
		// Offset is the end of the last record returned: the sum of the
		// records' header and body lengths, however far the reader buffered.
		end := 0
		for range n {
			end += recordHeaderLen + int(binary.BigEndian.Uint32(raw[end+8:]))
		}
		if got := reuse.Offset(); got != int64(end) {
			t.Fatalf("after record %d: Offset %d, want %d", n-1, got, end)
		}
	}
	if n != 3 {
		t.Fatalf("decoded %d records, want 3", n)
	}
}

// TestScanReusesStorage pins the opt-in contract: a scanned record is
// invalidated (overwritten in place) by the following Scan.
func TestScanReusesStorage(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 7)
	if err := w.WritePeerIndexTable(netip.MustParseAddr("10.0.0.1"), "v", testPeers()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRIB(netx.MustPrefix("10.1.0.0/16"), []RIBEntry{
		{PeerIndex: 0, Attrs: attrs(111, 222)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRIB(netx.MustPrefix("10.2.0.0/16"), []RIBEntry{
		{PeerIndex: 1, Attrs: attrs(333, 444)},
	}); err != nil {
		t.Fatal(err)
	}
	w.Flush()

	r := NewReader(&buf)
	if _, err := r.Scan(); err != nil { // PIT
		t.Fatal(err)
	}
	first, err := r.Scan()
	if err != nil {
		t.Fatal(err)
	}
	rib := first.RIB
	second, err := r.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if second.RIB != rib {
		t.Fatal("Scan did not reuse the RIB record")
	}
	if rib.Prefix != netx.MustPrefix("10.2.0.0/16") {
		t.Fatalf("reused record holds %v", rib.Prefix)
	}
}

func TestDuplicatePeerIndexTableRejected(t *testing.T) {
	var one bytes.Buffer
	w := NewWriter(&one, 0)
	if err := w.WritePeerIndexTable(netip.MustParseAddr("10.0.0.1"), "v", testPeers()); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	// Two copies of the same PIT record back to back.
	raw := append(append([]byte(nil), one.Bytes()...), one.Bytes()...)
	r := NewReader(bytes.NewReader(raw))
	if _, err := r.Next(); err != nil {
		t.Fatalf("first PIT: %v", err)
	}
	_, err := r.Next()
	if err == nil || !strings.Contains(err.Error(), "duplicate PEER_INDEX_TABLE") {
		t.Fatalf("duplicate PIT: got %v", err)
	}
}

func TestWriterRejectsOversizeViewName(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	if err := w.WritePeerIndexTable(netip.MustParseAddr("10.0.0.1"),
		strings.Repeat("x", 0x10000), nil); err == nil {
		t.Fatal("view name over uint16 must fail")
	}
}

// TestWriterZeroAlloc pins the steady-state allocation contract of the
// writer scratch-buffer path.
func TestWriterZeroAlloc(t *testing.T) {
	w := NewWriter(io.Discard, 7)
	if err := w.WritePeerIndexTable(netip.MustParseAddr("10.0.0.1"), "v", testPeers()); err != nil {
		t.Fatal(err)
	}
	pfx := netx.MustPrefix("10.1.0.0/16")
	entries := []RIBEntry{
		{PeerIndex: 0, Attrs: bgp.AttrSet{ASPath: seq(bgp.Path{asn.ASN(3356), asn.ASN(1221)})}},
	}
	// Warm the scratch buffer.
	if err := w.WriteRIB(pfx, entries); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := w.WriteRIB(pfx, entries); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("WriteRIB allocates %.1f times per record in steady state", avg)
	}
}
