package routing

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"strings"
	"testing"

	"countryrank/internal/bgp"
	"countryrank/internal/mrt"
)

// recordOffsets walks a well-formed MRT stream header-by-header and returns
// the byte offset of each record, so tests can corrupt precise positions.
func recordOffsets(t *testing.T, stream []byte) []int {
	t.Helper()
	var offsets []int
	pos := 0
	for pos+12 <= len(stream) {
		offsets = append(offsets, pos)
		length := int(binary.BigEndian.Uint32(stream[pos+8:]))
		pos += 12 + length
	}
	if pos != len(stream) {
		t.Fatalf("stream did not cleave into records: ended at %d of %d", pos, len(stream))
	}
	return offsets
}

// TestImportMRTDegraded corrupts one record in one collector stream and
// checks both ingest modes: strict aborts, SkipCorrupt completes with the
// loss accounted in ImportStats.
func TestImportMRTDegraded(t *testing.T) {
	w := testWorld(t)
	c := BuildCollection(w, BuildOptions{LoopFrac: -1, PoisonFrac: -1, UnallocFrac: -1})

	var clean [][]byte
	for _, coll := range w.VPs.Collectors() {
		var b bytes.Buffer
		if err := ExportMRT(&b, c, coll.Name, 1617235200); err != nil {
			t.Fatalf("export %s: %v", coll.Name, err)
		}
		clean = append(clean, b.Bytes())
	}

	// Blow up the length field of the second record (first RIB record after
	// the peer index table) in the first stream.
	offsets := recordOffsets(t, clean[0])
	if len(offsets) < 3 {
		t.Skip("first stream too small to corrupt safely")
	}
	mut := append([]byte(nil), clean[0]...)
	binary.BigEndian.PutUint32(mut[offsets[1]+8:], 1<<30)

	streams := func() []io.Reader {
		rs := []io.Reader{bytes.NewReader(mut)}
		for _, b := range clean[1:] {
			rs = append(rs, bytes.NewReader(b))
		}
		return rs
	}

	if _, _, err := ImportMRT(w, streams(), ImportOptions{}); err == nil {
		t.Fatal("strict import accepted a corrupt record")
	}

	got, stats, err := ImportMRT(w, streams(), ImportOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatalf("degraded import: %v", err)
	}
	if stats.Resyncs < 1 {
		t.Errorf("resyncs = %d, want >= 1", stats.Resyncs)
	}
	if stats.SkippedBytes == 0 {
		t.Error("skipped bytes = 0, want > 0")
	}
	if len(got.Records) >= len(c.Records) {
		t.Errorf("degraded import has %d records, want < %d (the corrupt record is lost)",
			len(got.Records), len(c.Records))
	}
	if stats.Records != int64(len(got.Records)) {
		t.Errorf("stats.Records = %d, collection has %d", stats.Records, len(got.Records))
	}
	// The loss is bounded: only the one corrupted record's entries are gone.
	if len(got.Records) == 0 {
		t.Fatal("degraded import lost everything")
	}
}

// TestImportMRTRejectsBGP4MP pins what import does with an update record
// between two RIB records: strict import fails on its type, and SkipCorrupt
// skips it, counts it, and imports the RIBs on both sides of it.
func TestImportMRTRejectsBGP4MP(t *testing.T) {
	w := testWorld(t)
	coll := w.VPs.Collectors()[0]
	var peer mrt.Peer
	for i := 0; i < w.VPs.Len(); i++ {
		if v := w.VPs.VP(i); v.Collector == coll.Name {
			peer = mrt.Peer{BGPID: v.Addr, Addr: v.Addr, AS: v.AS}
			break
		}
	}
	// A BGP4MP_MESSAGE_AS4 record: type 16, subtype 4, a zeroed body.
	update := make([]byte, 12+40)
	binary.BigEndian.PutUint16(update[4:], 16)
	binary.BigEndian.PutUint16(update[6:], 4)
	binary.BigEndian.PutUint32(update[8:], 40)

	var buf bytes.Buffer
	mw := mrt.NewWriter(&buf, 1617235200)
	if err := mw.WritePeerIndexTable(coll.ID, coll.Name, []mrt.Peer{peer}); err != nil {
		t.Fatal(err)
	}
	for i, pfx := range []string{"203.0.113.0/24", "198.51.100.0/24"} {
		entries := []mrt.RIBEntry{{Attrs: bgp.AttrSet{ASPath: seq(bgp.Path{peer.AS, 64500})}}}
		if err := mw.WriteRIB(netip.MustParsePrefix(pfx), entries); err != nil {
			t.Fatal(err)
		}
		if err := mw.Flush(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			buf.Write(update)
		}
	}
	streams := func() []io.Reader { return []io.Reader{bytes.NewReader(buf.Bytes())} }

	if _, _, err := ImportMRT(w, streams(), ImportOptions{}); err == nil || !strings.Contains(err.Error(), "mrt: unsupported record type 16") {
		t.Fatalf("strict import: %v, want the unsupported record type 16", err)
	}
	col, stats, err := ImportMRT(w, streams(), ImportOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Prefixes) != 2 || len(col.Records) != 2 {
		t.Errorf("imported %d prefixes and %d records, want both RIBs' 2 and 2", len(col.Prefixes), len(col.Records))
	}
	if stats.Resyncs != 1 || stats.SkippedBytes != int64(len(update)) {
		t.Errorf("resyncs %d, skipped %d bytes; want 1 and %d", stats.Resyncs, stats.SkippedBytes, len(update))
	}
}
