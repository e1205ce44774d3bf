package routing

import (
	"bytes"
	"io"
	"sort"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/topology"
	"countryrank/internal/vp"
)

// PathOf returns the path of record i.
func (c *Collection) PathOf(i int) bgp.Path { return c.Paths[c.Records[i].Path] }

func testWorld(t *testing.T) *topology.World {
	t.Helper()
	return topology.Build(topology.Config{Seed: 5, StubScale: 0.1, VPScale: 0.1})
}

func TestBuildCollectionDeterministic(t *testing.T) {
	w := testWorld(t)
	a := BuildCollection(w, BuildOptions{})
	b := BuildCollection(w, BuildOptions{})
	if len(a.Records) != len(b.Records) || len(a.Paths) != len(b.Paths) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", len(a.Records), len(a.Paths), len(b.Records), len(b.Paths))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
		if !a.PathOf(i).Equal(b.PathOf(i)) {
			t.Fatalf("path of record %d differs", i)
		}
	}
}

func TestCollectionShape(t *testing.T) {
	w := testWorld(t)
	c := BuildCollection(w, BuildOptions{})
	if len(c.Prefixes) == 0 || len(c.Records) == 0 {
		t.Fatal("empty collection")
	}
	if len(c.Origin) != len(c.Prefixes) || len(c.Stable) != len(c.Prefixes) {
		t.Fatal("parallel slices out of sync")
	}
	if c.Days != 5 {
		t.Errorf("Days = %d", c.Days)
	}
	// Every record references valid indexes and a non-empty path ending at
	// the prefix's origin (unless the path was corrupted by injection).
	for i, r := range c.Records {
		if r.VP < 0 || int(r.VP) >= w.VPs.Len() || r.Prefix < 0 || int(r.Prefix) >= len(c.Prefixes) {
			t.Fatalf("record %d out of range: %+v", i, r)
		}
		if len(c.PathOf(i)) == 0 {
			t.Fatalf("record %d has empty path", i)
		}
	}
	// Instability rate near the configured 8%.
	unstable := 0
	for _, s := range c.Stable {
		if !s {
			unstable++
		}
	}
	frac := float64(unstable) / float64(len(c.Stable))
	if frac < 0.04 || frac > 0.14 {
		t.Errorf("unstable fraction = %f, want ≈0.08", frac)
	}
}

func TestAnomalyInjectionRates(t *testing.T) {
	w := testWorld(t)
	c := BuildCollection(w, BuildOptions{LoopFrac: 0.01, PoisonFrac: 0.002, UnallocFrac: 0.005})
	allocated := map[asn.ASN]bool{}
	w.Graph.Registry().ForEach(func(a asn.ASN) { allocated[a] = true })
	loops, unalloc := 0, 0
	for i := range c.Records {
		p := c.PathOf(i)
		if p.HasNonAdjacentLoop() {
			loops++
			continue
		}
		for _, a := range p {
			if !allocated[a] {
				unalloc++
				break
			}
		}
	}
	n := float64(len(c.Records))
	if f := float64(loops) / n; f < 0.005 || f > 0.02 {
		t.Errorf("loop fraction = %f, want ≈0.01", f)
	}
	if f := float64(unalloc) / n; f < 0.002 || f > 0.01 {
		t.Errorf("unallocated fraction = %f, want ≈0.005", f)
	}
}

func TestCustomerFeedVPsExportLess(t *testing.T) {
	w := testWorld(t)
	c := BuildCollection(w, BuildOptions{})
	perVP := make([]int, w.VPs.Len())
	for _, r := range c.Records {
		perVP[r.VP]++
	}
	var full, partial []int
	for i := 0; i < w.VPs.Len(); i++ {
		if perVP[i] == 0 {
			continue
		}
		if w.VPs.VP(i).Feed == vp.CustomerFeed {
			partial = append(partial, perVP[i])
		} else {
			full = append(full, perVP[i])
		}
	}
	if len(partial) == 0 || len(full) == 0 {
		t.Skip("world too small to compare feed types")
	}
	med := func(xs []int) int {
		sort.Ints(xs)
		return xs[len(xs)/2]
	}
	if med(partial) >= med(full)/2 {
		t.Errorf("customer-feed median %d not well below full-feed median %d", med(partial), med(full))
	}
}

func TestMRTRoundTrip(t *testing.T) {
	w := testWorld(t)
	c := BuildCollection(w, BuildOptions{LoopFrac: -1, PoisonFrac: -1, UnallocFrac: -1})

	var bufs []io.Reader
	for _, coll := range w.VPs.Collectors() {
		var b bytes.Buffer
		if err := ExportMRT(&b, c, coll.Name, 1617235200); err != nil {
			t.Fatalf("export %s: %v", coll.Name, err)
		}
		bufs = append(bufs, &b)
	}
	got, _, err := ImportMRT(w, bufs)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if len(got.Records) != len(c.Records) {
		t.Fatalf("record count: got %d, want %d", len(got.Records), len(c.Records))
	}
	// Compare as multisets of (vp, prefix, path-string).
	key := func(col *Collection, i int) string {
		return col.Prefixes[col.Records[i].Prefix].String() + "|" +
			string(rune(col.Records[i].VP)) + "|" + col.PathOf(i).String()
	}
	want := map[string]int{}
	for i := range c.Records {
		want[key(c, i)]++
	}
	for i := range got.Records {
		want[key(got, i)]--
	}
	for k, v := range want {
		if v != 0 {
			t.Fatalf("multiset mismatch at %q: %+d", k, v)
		}
	}
}

func TestExportMRTUnknownCollector(t *testing.T) {
	w := testWorld(t)
	c := BuildCollection(w, BuildOptions{})
	if err := ExportMRT(io.Discard, c, "no-such-collector", 0); err == nil {
		t.Error("unknown collector must error")
	}
}

func TestDayMaskInvariants(t *testing.T) {
	w := testWorld(t)
	c := BuildCollection(w, BuildOptions{})
	full := uint16(1<<c.Days) - 1
	for i := range c.Prefixes {
		mask := c.DayMask[i]
		if c.Stable[i] != (mask == full) {
			t.Fatalf("prefix %d: stable=%v mask=%b", i, c.Stable[i], mask)
		}
		if mask == 0 {
			t.Fatalf("prefix %d never announced", i)
		}
	}
}
