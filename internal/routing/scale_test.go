package routing

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/mrt"
	"countryrank/internal/topology"
)

// collectionEqual compares everything downstream consumers can observe:
// prefix/origin/stability tables, the records, and every record's path
// value.
func collectionEqual(t *testing.T, a, b *Collection, label string) {
	t.Helper()
	if !reflect.DeepEqual(a.Prefixes, b.Prefixes) {
		t.Fatalf("%s: prefixes differ", label)
	}
	if !reflect.DeepEqual(a.Origin, b.Origin) {
		t.Fatalf("%s: origins differ", label)
	}
	if !reflect.DeepEqual(a.Stable, b.Stable) || !reflect.DeepEqual(a.DayMask, b.DayMask) {
		t.Fatalf("%s: stability differs", label)
	}
	ra, rb := a.Records, b.Records
	if len(ra) != len(rb) {
		t.Fatalf("%s: %d vs %d records", label, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].VP != rb[i].VP || ra[i].Prefix != rb[i].Prefix {
			t.Fatalf("%s: record %d = %+v vs %+v", label, i, ra[i], rb[i])
		}
		if !a.Paths[ra[i].Path].Equal(b.Paths[rb[i].Path]) {
			t.Fatalf("%s: record %d path differs", label, i)
		}
	}
}

// mrtDigest exports every collector and hashes the concatenated streams.
func mrtDigest(t *testing.T, c *Collection) [32]byte {
	t.Helper()
	h := sha256.New()
	for _, coll := range c.VPs.Collectors() {
		var buf bytes.Buffer
		if err := ExportMRT(&buf, c, coll.Name, 1617235200); err != nil {
			t.Fatal(err)
		}
		h.Write(buf.Bytes())
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// TestShardedBuildDeterministic proves the tentpole invariant: the sharded
// build produces byte-identical collections (and byte-identical MRT exports)
// for every shard count at every GOMAXPROCS.
func TestShardedBuildDeterministic(t *testing.T) {
	w := testWorld(t)
	base := BuildCollection(w, BuildOptions{Shards: 1})
	baseDigest := mrtDigest(t, base)
	for _, procs := range []int{1, 4, 16} {
		prev := runtime.GOMAXPROCS(procs)
		for _, shards := range []int{2, 7, 64} {
			col := BuildCollection(w, BuildOptions{Shards: shards})
			collectionEqual(t, base, col, "sequential vs sharded")
			// The sharded interner assigns the same IDs too: records and
			// path tables match exactly, not just observably.
			if !reflect.DeepEqual(base.Records, col.Records) {
				t.Fatalf("procs=%d shards=%d: record slices differ", procs, shards)
			}
			if d := mrtDigest(t, col); d != baseDigest {
				t.Fatalf("procs=%d shards=%d: MRT digest differs", procs, shards)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestPathNumberingEqualsHashConsing states what BuildCollection's merge
// must do without hashing tree paths: hand out path indexes exactly as
// hash-consing every route's path, then every mutated record's path, in
// record order would. Re-interning col.Paths over the record stream into a
// fresh interner must therefore give each record its own index back. One
// allowance: a route is numbered before its records are corrupted, so a path
// whose every record was mutated is in col.Paths with no record naming it;
// such paths are interned when the stream steps over their index, and must be
// new there too. Corruption is cranked up so mutated paths (the only ones
// that can repeat) and fully mutated routes are both common.
func TestPathNumberingEqualsHashConsing(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		w := topology.Build(topology.Config{Seed: seed, StubScale: 0.1, VPScale: 0.1})
		for _, shards := range []int{1, 3, 4 * runtime.GOMAXPROCS(0)} {
			col := BuildCollection(w, BuildOptions{Shards: shards, LoopFrac: 0.05, PoisonFrac: 0.05, UnallocFrac: 0.05})
			it := bgp.NewInterner(0)
			distinct := int32(0) // the interner numbers new paths 0, 1, …
			intern := func(p int32) int32 {
				got := it.InternOwned(col.Paths[p])
				distinct = max(distinct, got+1)
				return got
			}
			unnamed := 0
			// internBelow interns the paths below index q that no record
			// has named yet.
			internBelow := func(q int32) {
				for next := distinct; next < q; next++ {
					if got := intern(next); got != next {
						t.Fatalf("seed %d shards %d: path %d, named by no record, repeats path %d",
							seed, shards, next, got)
					}
					unnamed++
				}
			}
			for i, r := range col.Records {
				internBelow(r.Path)
				if got := intern(r.Path); got != r.Path {
					t.Fatalf("seed %d shards %d: record %d carries path %d, hash-consing numbers it %d",
						seed, shards, i, r.Path, got)
				}
			}
			internBelow(int32(len(col.Paths)))
			if n := len(it.Paths()); n != len(col.Paths) {
				t.Fatalf("seed %d shards %d: %d paths, %d distinct",
					seed, shards, len(col.Paths), n)
			}
			if len(col.Paths) < len(col.Records)/10 || unnamed == 0 || unnamed > len(col.Paths)/5 {
				t.Fatalf("implausible build: %d records, %d paths, %d named by no record",
					len(col.Records), len(col.Paths), unnamed)
			}
		}
	}
}

// writeDumps exports every collector of col to its own file under a temp
// directory, the way topogen lays a dump directory out.
func writeDumps(t testing.TB, col *Collection) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for _, coll := range col.VPs.Collectors() {
		var buf bytes.Buffer
		if err := ExportMRT(&buf, col, coll.Name, 1617235200); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, coll.Name+".mrt")
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

// TestImportMRTFilesMatchesStreams proves the file importer is identical to
// the stream importer, collection and loss accounting both, with the decode
// and merge fan-outs inline and on four procs.
func TestImportMRTFilesMatchesStreams(t *testing.T) {
	w := testWorld(t)
	paths := writeDumps(t, BuildCollection(w, BuildOptions{}))

	seq, seqStats := importViaStreams(t, w, paths)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		files, stats, err := ImportMRTFiles(w, paths, ImportOptions{})
		if err != nil {
			t.Fatal(err)
		}
		collectionEqual(t, seq, files, "streams vs files import")
		if !reflect.DeepEqual(seq.Records, files.Records) || !reflect.DeepEqual(seq.Paths, files.Paths) {
			t.Fatalf("procs=%d: record or path tables differ", procs)
		}
		if stats != seqStats {
			t.Fatalf("procs=%d: stats %+v, streams gave %+v", procs, stats, seqStats)
		}
	}
}

// TestImportForeignPeerAndRepeatedPrefix: what a stream holds cannot be
// known from its size. A peer table naming a router outside the world has
// its entries rejected and counted, Records comes out exactly as long as
// what was kept, and a prefix the stream carries in two RIB records is one
// prefix whose origin is the first seen.
func TestImportForeignPeerAndRepeatedPrefix(t *testing.T) {
	w := testWorld(t)
	v := w.VPs.VP(0)
	coll, _ := w.VPs.Collector(v.Collector)
	foreign := netip.MustParseAddr("198.51.100.77")
	var buf bytes.Buffer
	mw := mrt.NewWriter(&buf, 1617235200)
	if err := mw.WritePeerIndexTable(coll.ID, coll.Name, []mrt.Peer{
		{BGPID: v.Addr, Addr: v.Addr, AS: v.AS},
		{BGPID: foreign, Addr: foreign, AS: 64496},
	}); err != nil {
		t.Fatal(err)
	}
	entry := func(peer uint16, path ...asn.ASN) mrt.RIBEntry {
		return mrt.RIBEntry{PeerIndex: peer, Attrs: bgp.AttrSet{ASPath: seq(path)}}
	}
	a, b := netip.MustParsePrefix("203.0.113.0/24"), netip.MustParsePrefix("192.0.2.0/24")
	for _, rib := range []struct {
		pfx     netip.Prefix
		entries []mrt.RIBEntry
	}{
		{a, []mrt.RIBEntry{entry(1, 64496, 64500), entry(0, v.AS, 64501)}},
		{b, []mrt.RIBEntry{entry(1, 64496, 64502)}},
		{a, []mrt.RIBEntry{entry(0, v.AS, 64503), entry(1, 64496, 64503)}},
	} {
		if err := mw.WriteRIB(rib.pfx, rib.entries); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}

	col, stats, err := ImportMRT(w, []io.Reader{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	want, err := importMRTRef(w, []io.Reader{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	requireSameCollection(t, col, want)
	if stats.Records != 2 || stats.Rejects != 3 || stats.VPsNamed != 1 {
		t.Errorf("stats %+v, want 2 records kept, 3 rejected, 1 VP named", stats)
	}
	if len(col.Records) != 2 || cap(col.Records) != 2 {
		t.Errorf("Records has len %d cap %d, want exactly the 2 kept", len(col.Records), cap(col.Records))
	}
	// The foreign peer's 64500 came first on the wire but was rejected: the
	// first origin seen for 203.0.113.0/24 is the world VP's.
	if !reflect.DeepEqual(col.Prefixes, []netip.Prefix{a, b}) || col.Origin[0] != 64501 {
		t.Errorf("prefixes %v origins %v, want [%v %v] with origin 64501 first", col.Prefixes, col.Origin, a, b)
	}
}

func importViaStreams(t *testing.T, w *topology.World, paths []string) (*Collection, ImportStats) {
	t.Helper()
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	readers := make([]io.Reader, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		readers = append(readers, f)
	}
	col, stats, err := ImportMRT(w, readers)
	if err != nil {
		t.Fatal(err)
	}
	return col, stats
}
