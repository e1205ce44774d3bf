package core

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

func partialWorld() (*topology.World, *routing.Collection) {
	o := smallOpts()
	w := topology.Build(topology.Config{
		Seed: o.Seed, StubScale: o.StubScale, VPScale: o.VPScale,
	})
	return w, routing.BuildCollection(w, routing.BuildOptions{})
}

// runPartial runs the pipeline over the in-hand source with a stated
// coverage: what a live collector that lost feeders would hand over.
func runPartial(cov Coverage, opt Options) (*Pipeline, error) {
	w, col := partialWorld()
	return Run(context.Background(), inHand(w, col, cov), opt)
}

func TestCoverageSemantics(t *testing.T) {
	full := Coverage{VPsExpected: 5, VPsDelivered: 5}
	if full.Degraded() || full.Fraction() != 1 {
		t.Fatalf("full coverage reads degraded: %+v", full)
	}
	// Reconnects alone are not degradation: the resume protocol delivers
	// exact tables through them.
	bumpy := Coverage{VPsExpected: 5, VPsDelivered: 5, Reconnects: 12}
	if bumpy.Degraded() {
		t.Fatal("reconnects alone must not mark a run degraded")
	}
	for _, c := range []Coverage{
		{VPsExpected: 5, VPsDelivered: 3},
		{VPsExpected: 5, VPsDelivered: 5, RecordsLost: 1},
		{VPsExpected: 5, VPsDelivered: 5, Resyncs: 1},
	} {
		if !c.Degraded() {
			t.Fatalf("coverage %+v must read degraded", c)
		}
	}
	if none := (Coverage{}); none.Fraction() != 1 {
		t.Fatal("no expectation must not read as zero coverage")
	}
}

func TestQuorumFailsLoudly(t *testing.T) {
	cov := Coverage{VPsExpected: 10, VPsDelivered: 3}
	if _, err := runPartial(cov, Options{}); err == nil {
		t.Fatal("3/10 coverage passed the default 50% quorum")
	} else if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("quorum failure unclear: %v", err)
	}
	// NoQuorum disables the gate; the run proceeds, labelled.
	p, err := runPartial(cov, Options{Quorum: NoQuorum})
	if err != nil {
		t.Fatalf("NoQuorum still gated: %v", err)
	}
	if !p.Coverage.Info().Degraded {
		t.Fatal("partial pipeline lost its coverage report")
	}
}

func TestDegradedRankingsLabelled(t *testing.T) {
	p, err := runPartial(Coverage{VPsExpected: 4, VPsDelivered: 3, RecordsLost: 7}, Options{})
	if err != nil {
		t.Fatalf("3/4 coverage failed the 50%% quorum: %v", err)
	}
	cs := p.DS.CountriesWithPrefixes()
	if len(cs) == 0 {
		t.Skip("no countries at this scale")
	}
	c := cs[0]
	cr := p.Country(c)
	for _, r := range []struct {
		name string
		got  string
	}{
		{"CCI", cr.CCI.Metric}, {"CCN", cr.CCN.Metric},
		{"AHI", cr.AHI.Metric}, {"AHN", cr.AHN.Metric},
		{"AHC", p.AHC(c).Metric}, {"CTI", p.CTI(c).Metric},
	} {
		if !strings.Contains(r.got, "degraded") || !strings.Contains(r.got, "3/4 VPs") {
			t.Errorf("%s ranking %q not labelled as degraded", r.name, r.got)
		}
	}
	ccg, ahg := p.Global()
	if !strings.Contains(ccg.Metric, "degraded") || !strings.Contains(ahg.Metric, "degraded") {
		t.Errorf("global rankings %q / %q not labelled", ccg.Metric, ahg.Metric)
	}
}

func TestCompletePartialRunUnlabelled(t *testing.T) {
	p, err := runPartial(Coverage{VPsExpected: 4, VPsDelivered: 4, Reconnects: 2}, Options{})
	if err != nil {
		t.Fatalf("complete coverage rejected: %v", err)
	}
	ccg, _ := p.Global()
	if ccg.Metric != string(CCG) {
		t.Fatalf("complete run got labelled: %q", ccg.Metric)
	}
}

// exportDumps writes every collector's dump of the smallOpts world into a
// fresh directory — what topogen leaves behind — and returns the paths in
// collector order.
func exportDumps(t *testing.T) []string {
	t.Helper()
	w, col := partialWorld()
	dir := t.TempDir()
	var paths []string
	for _, coll := range w.VPs.Collectors() {
		path := filepath.Join(dir, coll.Name+".mrt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := routing.ExportMRT(f, col, coll.Name, 1617235200); err != nil {
			t.Fatalf("export %s: %v", coll.Name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// TestMRTSourceCoverage is the crank -mrt contract: a dump directory that
// covers part of the world never yields an unlabelled ranking. Delivered VPs
// are the ones the peer index tables list — several VPs of a complete world
// own no record, and a complete directory must still read e/e.
func TestMRTSourceCoverage(t *testing.T) {
	paths := exportDumps(t)
	w, col := partialWorld()
	all := w.VPs.Len()
	owning := map[int32]bool{}
	for _, r := range col.Records {
		owning[r.VP] = true
	}
	if len(owning) == all {
		t.Fatal("every VP owns a record: the fixture no longer tells listed from owning")
	}
	vpsOf := func(collector string) int {
		n := 0
		for i := 0; i < all; i++ {
			if w.VPs.VP(i).Collector == collector {
				n++
			}
		}
		return n
	}
	colls := w.VPs.Collectors()
	for _, tc := range []struct {
		name      string
		paths     []string
		delivered int
		quorum    bool // the run is refused
	}{
		{"all dumps", paths, all, false},
		{"all but one collector", paths[1:], all - vpsOf(colls[0].Name), false},
		{"one collector only", paths[:1], vpsOf(colls[0].Name), true},
		{"no dumps", nil, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Run(context.Background(), MRTFiles(tc.paths), smallOpts())
			if tc.quorum {
				if err == nil {
					t.Fatalf("%d/%d VPs produced a pipeline", tc.delivered, all)
				}
				if !strings.Contains(err.Error(), "below quorum") {
					t.Fatalf("refusal does not name the quorum: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			info := p.Coverage.Info()
			degraded := tc.delivered < all
			if info.VPsExpected != all || info.VPsDelivered != tc.delivered || info.Degraded != degraded || info.RecordsLost != 0 {
				t.Fatalf("manifest coverage %+v, want %d/%d degraded=%v", info, tc.delivered, all, degraded)
			}
			ccg, _ := p.Global()
			cci := p.Country("AU").CCI
			want := ""
			if degraded {
				want = " [degraded: " + p.Coverage.String() + "]"
			}
			if ccg.Metric != "CCG"+want || cci.Metric != "CCI AU"+want {
				t.Fatalf("ranking names %q / %q, want suffix %q", ccg.Metric, cci.Metric, want)
			}
		})
	}
}

// TestDegradedIngestEndToEnd drives the whole degraded path: export a
// collection to MRT, corrupt a record, re-import it through the MRT source
// with SkipCorrupt, and check coverage, manifest and ranking labels carry
// the resync accounting.
func TestDegradedIngestEndToEnd(t *testing.T) {
	paths := exportDumps(t)
	first, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the second record's length field in the first dump.
	if len(first) < 24 {
		t.Skip("first dump too small")
	}
	second := 12 + int(binary.BigEndian.Uint32(first[8:]))
	if second+12 > len(first) {
		t.Skip("first dump has one record")
	}
	binary.BigEndian.PutUint32(first[second+8:], 1<<30)
	if err := os.WriteFile(paths[0], first, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Run(context.Background(), MRTFiles(paths), smallOpts()); err == nil {
		t.Fatal("strict import accepted a corrupt dump")
	}
	p, err := Run(context.Background(), mrtFiles(paths, routing.ImportOptions{SkipCorrupt: true}), smallOpts())
	if err != nil {
		t.Fatalf("pipeline from degraded import: %v", err)
	}
	info := p.Coverage.Info()
	if info.Resyncs == 0 || !info.Degraded || info.VPsDelivered != info.VPsExpected {
		t.Fatalf("coverage %+v does not report the skipped record over a full VP set", info)
	}
	ccg, _ := p.Global()
	if !strings.Contains(ccg.Metric, "[degraded: ") || !strings.Contains(ccg.Metric, "1 resyncs") {
		t.Fatalf("degraded-import ranking %q not labelled", ccg.Metric)
	}

	// A partial dataset keeps the per-path layout: records on one collection
	// path share one id slice (sanitize's TestInternerInvariants pins the
	// rest of the contract on the same kind of import).
	idsOf := map[int32][]int32{}
	shared := 0
	for i := 0; i < p.DS.Len(); i++ {
		_, _, ids := p.DS.RecordIDs(i)
		if len(ids) == 0 {
			continue
		}
		q := p.DS.PathIndex(i)
		if prev, ok := idsOf[q]; !ok {
			idsOf[q] = ids
		} else if shared++; len(prev) != len(ids) || &prev[0] != &ids[0] {
			t.Fatalf("record %d does not alias the ids of path index %d", i, q)
		}
	}
	if shared == 0 {
		t.Fatal("no two records of the partial dataset share a path index")
	}
}
