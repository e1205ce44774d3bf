package core

import (
	"bytes"
	"encoding/binary"
	"io"
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
	w, col := partialWorld()
	cov := Coverage{VPsExpected: 10, VPsDelivered: 3}
	if _, err := NewPipelineFromPartial(w, col, cov, Options{}); err == nil {
		t.Fatal("3/10 coverage passed the default 50% quorum")
	} else if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("quorum failure unclear: %v", err)
	}
	// NoQuorum disables the gate; the run proceeds, labelled.
	p, err := NewPipelineFromPartial(w, col, cov, Options{Quorum: NoQuorum})
	if err != nil {
		t.Fatalf("NoQuorum still gated: %v", err)
	}
	if p.Coverage == nil || !p.Coverage.Degraded() {
		t.Fatal("partial pipeline lost its coverage report")
	}
}

func TestDegradedRankingsLabelled(t *testing.T) {
	w, col := partialWorld()
	cov := Coverage{VPsExpected: 4, VPsDelivered: 3, RecordsLost: 7}
	p, err := NewPipelineFromPartial(w, col, cov, Options{})
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
	w, col := partialWorld()
	cov := Coverage{VPsExpected: 4, VPsDelivered: 4, Reconnects: 2}
	p, err := NewPipelineFromPartial(w, col, cov, Options{})
	if err != nil {
		t.Fatalf("complete coverage rejected: %v", err)
	}
	ccg, _ := p.Global()
	if ccg.Metric != string(CCG) {
		t.Fatalf("complete run got labelled: %q", ccg.Metric)
	}
}

// TestDegradedIngestEndToEnd drives the whole degraded path: export a
// collection to MRT, corrupt a record, re-import with SkipCorrupt, build
// the pipeline from the partial collection, and check the rankings carry
// the resync accounting in their labels.
func TestDegradedIngestEndToEnd(t *testing.T) {
	w, col := partialWorld()
	var streams []io.Reader
	var first []byte
	for i, coll := range w.VPs.Collectors() {
		var b bytes.Buffer
		if err := routing.ExportMRT(&b, col, coll.Name, 1617235200); err != nil {
			t.Fatalf("export %s: %v", coll.Name, err)
		}
		if i == 0 {
			first = b.Bytes()
		} else {
			streams = append(streams, bytes.NewReader(b.Bytes()))
		}
	}
	// Corrupt the second record's length field in the first stream.
	if len(first) < 24 {
		t.Skip("first stream too small")
	}
	length := int(binary.BigEndian.Uint32(first[8:]))
	second := 12 + length
	if second+12 > len(first) {
		t.Skip("first stream has one record")
	}
	mut := append([]byte(nil), first...)
	binary.BigEndian.PutUint32(mut[second+8:], 1<<30)
	streams = append([]io.Reader{bytes.NewReader(mut)}, streams...)

	imported, stats, err := routing.ImportMRTWith(w, streams, routing.ImportOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatalf("degraded import: %v", err)
	}
	if stats.Resyncs == 0 {
		t.Fatal("corruption went unnoticed")
	}
	expected := 0
	seen := map[int32]bool{}
	for _, r := range col.Records {
		seen[r.VP] = true
	}
	expected = len(seen)

	cov := CoverageFromImport(expected, imported, stats)
	if !cov.Degraded() || cov.Resyncs != stats.Resyncs {
		t.Fatalf("coverage %+v does not reflect the import stats %+v", cov, stats)
	}
	p, err := NewPipelineFromPartial(w, imported, cov, Options{})
	if err != nil {
		t.Fatalf("pipeline from degraded import: %v", err)
	}
	ccg, _ := p.Global()
	if !strings.Contains(ccg.Metric, "degraded") {
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
