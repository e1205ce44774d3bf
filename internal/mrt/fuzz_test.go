package mrt

import (
	"bytes"
	"io"
	"net/netip"
	"testing"

	"countryrank/internal/netx"
)

// corpusStream builds a dump (PIT + v4 RIB + v6 RIB + BGP4MP) used to seed
// the fuzzer with structurally valid input; the reader rejects the last
// record's type.
func corpusStream(t testing.TB) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1617235200)
	if err := w.WritePeerIndexTable(netip.MustParseAddr("198.51.100.1"), "route-views.fuzz", testPeers()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRIB(netx.MustPrefix("10.1.0.0/16"), []RIBEntry{
		{PeerIndex: 0, OriginatedAt: 100, Attrs: attrs(3356, 1221)},
		{PeerIndex: 1, OriginatedAt: 200, Attrs: attrs(1299, 4826, 1221)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRIB(netx.MustPrefix("2001:db8:5::/48"), []RIBEntry{
		{PeerIndex: 1, OriginatedAt: 300, Attrs: attrs(2914, 4713)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return append(buf.Bytes(), bgp4mpRecord(1617235200)...)
}

// FuzzReaderNext feeds arbitrary bytes through both decode paths (Next and
// the storage-reusing Scan) and requires that they never panic and always
// agree on the record sequence.
func FuzzReaderNext(f *testing.F) {
	valid := corpusStream(f)
	f.Add(valid)
	// Truncations at interesting boundaries.
	for _, n := range []int{0, 1, 11, 12, 13, 40, len(valid) / 2, len(valid) - 1} {
		if n <= len(valid) {
			f.Add(valid[:n])
		}
	}
	// A corrupted length field and a flipped subtype.
	mut := append([]byte(nil), valid...)
	mut[9] = 0xFF
	f.Add(mut)
	mut2 := append([]byte(nil), valid...)
	mut2[7] = 9
	f.Add(mut2)
	// Truncated mid-record: cut inside the second record's body, so the
	// resync path sees a tail that ends before a plausible header.
	f.Add(valid[: len(valid)*3/4 : len(valid)*3/4])
	// Mid-stream garbage: a run of non-header bytes wedged between records,
	// exercising the forward scan over bytes that never align.
	garbage := bytes.Repeat([]byte{0xA5, 0x5A, 0x00, 0xFF}, 16)
	spliced := append(append(append([]byte(nil), valid[:40]...), garbage...), valid[40:]...)
	f.Add(spliced)
	// Garbage that embeds a plausible-but-lying header (type 13, subtype 2,
	// huge length), forcing a second resync after the first lands badly.
	lying := make([]byte, 12)
	lying[5] = TypeTableDumpV2
	lying[7] = SubtypeRIBIPv4Unicast
	lying[8] = 0x03
	f.Add(append(append(append([]byte(nil), valid[:40]...), lying...), valid[40:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := NewReader(bytes.NewReader(data))
		reuse := NewReader(bytes.NewReader(data))
		// The resync reader must terminate on any input without panicking,
		// surface nothing but EOF, and never recover fewer records than the
		// strict reader (it reads the same prefix, then keeps going).
		resil := NewReader(bytes.NewReader(data))
		resil.SetResync(true)
		resilRecords := 0
		for {
			_, err := resil.Scan()
			if err != nil {
				if err != io.EOF {
					t.Fatalf("resync reader returned non-EOF error: %v", err)
				}
				break
			}
			resilRecords++
		}
		strictRecords := 0
		for {
			a, errA := fresh.Next()
			b, errB := reuse.Scan()
			if (errA == nil) != (errB == nil) {
				t.Fatalf("Next err %v, Scan err %v", errA, errB)
			}
			if errA != nil {
				if errA != io.EOF && errA.Error() != errB.Error() {
					t.Fatalf("error text diverged: %q vs %q", errA, errB)
				}
				if resilRecords < strictRecords {
					t.Fatalf("resync reader recovered %d records, strict reader %d",
						resilRecords, strictRecords)
				}
				return
			}
			strictRecords++
			if (a.RIB == nil) != (b.RIB == nil) ||
				(a.PeerIndexTable == nil) != (b.PeerIndexTable == nil) {
				t.Fatal("record kind diverged between Next and Scan")
			}
			if a.RIB != nil {
				if a.RIB.Prefix != b.RIB.Prefix || a.RIB.Seq != b.RIB.Seq ||
					len(a.RIB.Entries) != len(b.RIB.Entries) {
					t.Fatal("RIB diverged between Next and Scan")
				}
				for i := range a.RIB.Entries {
					ea, eb := a.RIB.Entries[i], b.RIB.Entries[i]
					if ea.PeerIndex != eb.PeerIndex || ea.OriginatedAt != eb.OriginatedAt ||
						!ea.Attrs.ASPath.AppendFlat(nil).Equal(eb.Attrs.ASPath.AppendFlat(nil)) {
						t.Fatal("RIB entry diverged between Next and Scan")
					}
				}
			}
		}
	})
}
