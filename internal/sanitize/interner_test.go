package sanitize

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

// checkLayout pins the contract the metric kernels depend on, through
// Record/RecordIDs only: ids are dense, assigned in first-appearance order
// over the accepted records, resolve through a duplicate-free ASNOf, and mirror the
// clean path hop for hop; records sharing a collection path index alias one
// clean path and one id slice; and the clean path is the pure function of
// the collection path that clean computes.
func checkLayout(t *testing.T, ds *Dataset, clean func(bgp.Path) bgp.Path) {
	t.Helper()
	if ds.Len() == 0 || ds.NumAS() == 0 {
		t.Fatal("empty dataset")
	}
	idOf := map[asn.ASN]int{}
	for id, a := range ds.ASNOf {
		if first, dup := idOf[a]; dup {
			t.Fatalf("ASNOf[%d] and ASNOf[%d] are both %v", first, id, a)
		}
		idOf[a] = id
	}
	if ds.NumPaths() != len(ds.Col.Paths) {
		t.Fatalf("NumPaths = %d, collection has %d paths", ds.NumPaths(), len(ds.Col.Paths))
	}

	next := int32(0)            // first-appearance order: ids never skip ahead
	firstRec := map[int32]int{} // path index → first record using it
	shared, usedHops := 0, 0    // records reusing a path; arena hops in use
	sameSlice := func(a, b []int32) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }
	for i := 0; i < ds.Len(); i++ {
		vp1, pfx1, path := ds.Record(i)
		vp2, pfx2, ids := ds.RecordIDs(i)
		if vp1 != vp2 || pfx1 != pfx2 || len(path) != len(ids) {
			t.Fatalf("record %d: RecordIDs disagrees with Record", i)
		}
		q := ds.PathIndex(i)
		if int(q) < 0 || int(q) >= ds.NumPaths() {
			t.Fatalf("record %d: path index %d out of range", i, q)
		}
		if want := clean(ds.Col.Paths[q]); !path.Equal(want) {
			t.Fatalf("record %d: clean path %v, want %v", i, path, want)
		}
		if !path.Equal(ds.CleanPath(int(q))) {
			t.Fatalf("record %d: Record and CleanPath(%d) disagree", i, q)
		}
		for j, hop := range path {
			id := ids[j]
			if id < 0 || int(id) >= ds.NumAS() {
				t.Fatalf("record %d hop %d: id %d out of range [0,%d)", i, j, id, ds.NumAS())
			}
			if ds.ASNOf[id] != hop {
				t.Fatalf("record %d hop %d: id %d maps to %v, want %v", i, j, id, ds.ASNOf[id], hop)
			}
			if id > next {
				t.Fatalf("record %d hop %d: id %d assigned out of first-appearance order (next expected %d)",
					i, j, id, next)
			}
			if id == next {
				next++
			}
		}
		if first, ok := firstRec[q]; ok {
			shared++
			_, _, firstIDs := ds.RecordIDs(first)
			_, _, firstPath := ds.Record(first)
			if !sameSlice(ids, firstIDs) || len(path) > 0 && &path[0] != &firstPath[0] {
				t.Fatalf("records %d and %d share path index %d but not its storage", first, i, q)
			}
		} else {
			firstRec[q] = i
			usedHops += len(path)
		}
	}
	if int(next) != ds.NumAS() {
		t.Fatalf("walked ids up to %d, interner holds %d", next, ds.NumAS())
	}
	if shared == 0 {
		t.Fatal("no two records share a path index; the aliasing contract went unexercised")
	}
	// Once per distinct path, and nothing for paths no accepted record uses.
	if len(ds.cleanHops) != usedHops || len(ds.idHops) != usedHops {
		t.Fatalf("arenas hold %d/%d hops, accepted records use %d", len(ds.cleanHops), len(ds.idHops), usedHops)
	}
}

// exportStreams renders col as one TABLE_DUMP_V2 stream per collector.
func exportStreams(t *testing.T, w *topology.World, col *routing.Collection) [][]byte {
	t.Helper()
	var out [][]byte
	for _, coll := range w.VPs.Collectors() {
		var b bytes.Buffer
		if err := routing.ExportMRT(&b, col, coll.Name, 1617235200); err != nil {
			t.Fatalf("export %s: %v", coll.Name, err)
		}
		out = append(out, b.Bytes())
	}
	return out
}

func readers(streams [][]byte) []io.Reader {
	out := make([]io.Reader, len(streams))
	for i, s := range streams {
		out[i] = bytes.NewReader(s)
	}
	return out
}

func TestInternerInvariants(t *testing.T) {
	w, col := smallWorld(t)
	cfg := fullConfig(w, col, 0.5)
	judged := func(p bgp.Path) bgp.Path { return judgePath(p, cfg).clean }
	asIs := func(p bgp.Path) bgp.Path { return p }

	t.Run("Run", func(t *testing.T) { checkLayout(t, Run(col, cfg), judged) })

	t.Run("NewDataset", func(t *testing.T) {
		ran := Run(col, cfg)
		checkLayout(t, NewDataset(col, ran.VPCountry, ran.PrefixCountry), asIs)
	})

	streams := exportStreams(t, w, col)
	t.Run("MRT import", func(t *testing.T) {
		imported, _, err := routing.ImportMRT(w, readers(streams))
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, Run(imported, cfg), judged)
	})

	// The collection the MRT source hands Run from a strict but partial
	// import: the first stream's peer table lists its first peer under an
	// address outside the world, whose entries the import drops.
	t.Run("partial import", func(t *testing.T) {
		mut := bytes.Clone(streams[0])
		// Peer 0's address follows the 12-byte header, collector ID, view
		// name length, view name, peer count, type byte and BGP ID.
		at := 12 + 4 + 2 + int(binary.BigEndian.Uint16(mut[16:])) + 2
		if mut[at]&0x01 != 0 {
			t.Fatal("first peer has an IPv6 address")
		}
		copy(mut[at+5:], []byte{198, 51, 100, 77})
		partial, stats, err := routing.ImportMRT(w, readers(append([][]byte{mut}, streams[1:]...)))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rejects == 0 || partial.NumRecords() >= col.NumRecords() {
			t.Fatal("the foreign peer lost nothing")
		}
		checkLayout(t, Run(partial, cfg), judged)
	})
}
