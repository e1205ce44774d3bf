package routing

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"countryrank/internal/bgp"
	"countryrank/internal/mrt"
	"countryrank/internal/topology"
)

// This file retains the pre-counting-sort, serial MRT path as an executable
// reference, the same discipline the dense metric kernels use: the old
// map+sort.Slice exporters must be byte-identical to the new ones, and the
// serial importer must produce the same collection as the parallel one.

// seq wraps a flat path into one AS_SEQUENCE segment, the shape ExportMRT
// writes; an empty path has no segment. The bgp, mrt and routing tests each
// keep this copy: metrictest imports routing, so none of them can import it.
func seq(p bgp.Path) bgp.ASPath {
	if len(p) == 0 {
		return nil
	}
	return bgp.ASPath{{Type: bgp.SegmentSequence, ASNs: p}}
}

// exportMRTRef is the original ExportMRT: map-based peer index, group by
// prefix in a map, two sort.Slice passes.
func exportMRTRef(w io.Writer, c *Collection, collector string, timestamp uint32) error {
	set := c.VPs
	coll, ok := set.Collector(collector)
	if !ok {
		return fmt.Errorf("routing: unknown collector %q", collector)
	}

	var peerIdx = map[int32]uint16{}
	var peers []mrt.Peer
	for i := 0; i < set.Len(); i++ {
		v := set.VP(i)
		if v.Collector != collector {
			continue
		}
		peerIdx[int32(i)] = uint16(len(peers))
		peers = append(peers, mrt.Peer{BGPID: v.Addr, Addr: v.Addr, AS: v.AS})
	}

	mw := mrt.NewWriter(w, timestamp)
	if err := mw.WritePeerIndexTable(coll.ID, collector, peers); err != nil {
		return err
	}

	byPrefix := make(map[int32][]Record)
	for _, r := range c.Records {
		if _, ok := peerIdx[r.VP]; ok {
			byPrefix[r.Prefix] = append(byPrefix[r.Prefix], r)
		}
	}
	pfxs := make([]int32, 0, len(byPrefix))
	for p := range byPrefix {
		pfxs = append(pfxs, p)
	}
	sort.Slice(pfxs, func(i, j int) bool { return pfxs[i] < pfxs[j] })

	for _, p := range pfxs {
		recs := byPrefix[p]
		sort.Slice(recs, func(i, j int) bool { return recs[i].VP < recs[j].VP })
		entries := make([]mrt.RIBEntry, 0, len(recs))
		for _, r := range recs {
			entries = append(entries, mrt.RIBEntry{
				PeerIndex:    peerIdx[r.VP],
				OriginatedAt: timestamp,
				Attrs: bgp.AttrSet{
					Origin: bgp.OriginIGP,
					ASPath: seq(c.Path(r.Path)),
				},
			})
		}
		if err := mw.WriteRIB(c.Prefixes[p], entries); err != nil {
			return err
		}
	}
	return mw.Flush()
}

// importMRTRef is the original serial ImportMRT, with the origin sentinel
// fixed the same way (explicit unset tracking) so only parallelism and
// interning differ from the production path. It decodes with Scan, the
// reusing decoder ImportMRT uses, so it does not cross-check the decoders:
// internal/mrt's TestScanMatchesNext and FuzzReaderNext pin Scan against
// the allocating Next.
func importMRTRef(w *topology.World, streams []io.Reader) (*Collection, error) {
	set := w.VPs
	byAddr := map[netip.Addr]int32{}
	for i := 0; i < set.Len(); i++ {
		byAddr[set.VP(i).Addr] = int32(i)
	}

	col := &Collection{VPs: w.VPs, Days: 1}
	prefixIdx := map[netip.Prefix]int32{}
	var originSet []bool

	for _, stream := range streams {
		r := mrt.NewReader(stream)
		var peers []mrt.Peer
		for {
			// A scanned record is valid until the next Scan: the path is
			// copied out below, and a stream's one peer table stays put.
			rec, err := r.Scan()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			if rec.PeerIndexTable != nil {
				peers = rec.PeerIndexTable.Peers
				continue
			}
			rib := rec.RIB
			pi, ok := prefixIdx[rib.Prefix]
			if !ok {
				pi = int32(len(col.Prefixes))
				prefixIdx[rib.Prefix] = pi
				col.Prefixes = append(col.Prefixes, rib.Prefix)
				col.Origin = append(col.Origin, 0)
				originSet = append(originSet, false)
			}
			for _, e := range rib.Entries {
				if int(e.PeerIndex) >= len(peers) {
					return nil, fmt.Errorf("routing: peer index %d out of range", e.PeerIndex)
				}
				vpIdx, known := byAddr[peers[e.PeerIndex].Addr]
				if !known {
					continue
				}
				path := e.Attrs.ASPath.AppendFlat(nil)
				if o, ok := path.Origin(); ok && !originSet[pi] {
					col.Origin[pi] = o
					originSet[pi] = true
				}
				col.Records = append(col.Records, Record{
					VP:     vpIdx,
					Prefix: pi,
					Path:   col.AppendPath(path),
				})
			}
		}
	}
	col.Stable = make([]bool, len(col.Prefixes))
	for i := range col.Stable {
		col.Stable[i] = true
	}
	return col, nil
}

func refWorldAndCollection(t *testing.T) (*topology.World, *Collection) {
	t.Helper()
	w := testWorld(t)
	return w, BuildCollection(w, BuildOptions{})
}

func TestExportMRTMatchesReference(t *testing.T) {
	w, c := refWorldAndCollection(t)
	for _, coll := range w.VPs.Collectors() {
		var got, want bytes.Buffer
		if err := ExportMRT(&got, c, coll.Name, 1617235200); err != nil {
			t.Fatalf("%s: %v", coll.Name, err)
		}
		if err := exportMRTRef(&want, c, coll.Name, 1617235200); err != nil {
			t.Fatalf("%s ref: %v", coll.Name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: export differs from reference (%d vs %d bytes)",
				coll.Name, got.Len(), want.Len())
		}
	}
}

func exportAll(t *testing.T, w *topology.World, c *Collection) [][]byte {
	t.Helper()
	var dumps [][]byte
	for _, coll := range w.VPs.Collectors() {
		var buf bytes.Buffer
		if err := ExportMRT(&buf, c, coll.Name, 1617235200); err != nil {
			t.Fatalf("%s: %v", coll.Name, err)
		}
		dumps = append(dumps, buf.Bytes())
	}
	return dumps
}

func readersFor(dumps [][]byte) []io.Reader {
	rs := make([]io.Reader, len(dumps))
	for i, d := range dumps {
		rs[i] = bytes.NewReader(d)
	}
	return rs
}

// requireSameCollection compares two collections record by record. Path
// indexes are compared by value, not index: the parallel importer interns
// paths while the reference stores one per record.
func requireSameCollection(t *testing.T, got, want *Collection) {
	t.Helper()
	if len(got.Prefixes) != len(want.Prefixes) ||
		len(got.Records) != len(want.Records) {
		t.Fatalf("shape differs: %d/%d prefixes, %d/%d records",
			len(got.Prefixes), len(want.Prefixes), len(got.Records), len(want.Records))
	}
	for i := range want.Prefixes {
		if got.Prefixes[i] != want.Prefixes[i] {
			t.Fatalf("prefix %d: %v vs %v", i, got.Prefixes[i], want.Prefixes[i])
		}
		if got.Origin[i] != want.Origin[i] {
			t.Fatalf("origin of prefix %d: %v vs %v", i, got.Origin[i], want.Origin[i])
		}
		if got.Stable[i] != want.Stable[i] {
			t.Fatalf("stability of prefix %d differs", i)
		}
	}
	for i := range want.Records {
		g, r := got.Records[i], want.Records[i]
		if g.VP != r.VP || g.Prefix != r.Prefix {
			t.Fatalf("record %d: (%d,%d) vs (%d,%d)", i, g.VP, g.Prefix, r.VP, r.Prefix)
		}
		if !got.PathOf(i).Equal(want.PathOf(i)) {
			t.Fatalf("record %d path: %v vs %v", i, got.PathOf(i), want.PathOf(i))
		}
	}
}

func TestImportMRTMatchesReference(t *testing.T) {
	w, c := refWorldAndCollection(t)
	dumps := exportAll(t, w, c)

	got, _, err := ImportMRT(w, readersFor(dumps))
	if err != nil {
		t.Fatal(err)
	}
	want, err := importMRTRef(w, readersFor(dumps))
	if err != nil {
		t.Fatal(err)
	}
	requireSameCollection(t, got, want)
	if got.NumPaths() >= want.NumPaths() {
		t.Errorf("interning did not shrink the path table: %d vs %d",
			got.NumPaths(), want.NumPaths())
	}
}

func TestImportMRTDeterministicAcrossGOMAXPROCS(t *testing.T) {
	w, c := refWorldAndCollection(t)
	dumps := exportAll(t, w, c)

	old := runtime.GOMAXPROCS(1)
	serial, _, err := ImportMRT(w, readersFor(dumps))
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := ImportMRT(w, readersFor(dumps))
	if err != nil {
		t.Fatal(err)
	}
	requireSameCollection(t, serial, parallel)
	// With interning the path tables must match index for index too.
	if !reflect.DeepEqual(serial.Paths, parallel.Paths) {
		t.Fatalf("path arenas differ: %d vs %d paths", serial.NumPaths(), parallel.NumPaths())
	}
	for i := range serial.Records {
		if serial.Records[i] != parallel.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestImportMRTOriginZero pins the origin-sentinel fix: a prefix whose first
// observed path originates at AS0 must keep AS0 rather than being
// overwritten by a later record (the old code used Origin==0 to mean "not
// yet seen").
func TestImportMRTOriginZero(t *testing.T) {
	w := testWorld(t)
	set := w.VPs
	coll := set.Collectors()[0]
	var peers []mrt.Peer
	for i := 0; i < set.Len() && len(peers) < 2; i++ {
		v := set.VP(i)
		if v.Collector != coll.Name {
			continue
		}
		peers = append(peers, mrt.Peer{BGPID: v.Addr, Addr: v.Addr, AS: v.AS})
	}
	if len(peers) < 2 {
		t.Skip("collector has fewer than two VPs")
	}

	var buf bytes.Buffer
	mw := mrt.NewWriter(&buf, 1617235200)
	if err := mw.WritePeerIndexTable(coll.ID, coll.Name, peers); err != nil {
		t.Fatal(err)
	}
	pfx := netip.MustParsePrefix("203.0.113.0/24")
	entries := []mrt.RIBEntry{
		// The first entry's path terminates at AS0, the second at AS64500.
		{PeerIndex: 0, Attrs: bgp.AttrSet{ASPath: seq(bgp.Path{3356, 0})}},
		{PeerIndex: 1, Attrs: bgp.AttrSet{ASPath: seq(bgp.Path{1299, 64500})}},
	}
	if err := mw.WriteRIB(pfx, entries); err != nil {
		t.Fatal(err)
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}

	col, _, err := ImportMRT(w, []io.Reader{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Prefixes) != 1 || col.Prefixes[0] != pfx {
		t.Fatalf("prefixes = %v", col.Prefixes)
	}
	if col.Origin[0] != 0 {
		t.Fatalf("Origin = %v, want the first-seen AS0 origin preserved", col.Origin[0])
	}
	if len(col.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(col.Records))
	}
}
