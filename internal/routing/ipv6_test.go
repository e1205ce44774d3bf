package routing

import (
	"bytes"
	"io"
	"testing"

	"countryrank/internal/topology"
)

func dualStackWorld(t *testing.T) *topology.World {
	t.Helper()
	return topology.Build(topology.Config{Seed: 5, StubScale: 0.1, VPScale: 0.1, IPv6: true})
}

func TestDualStackMRTRoundTrip(t *testing.T) {
	w := dualStackWorld(t)
	c := BuildCollection(w, BuildOptions{LoopFrac: -1, PoisonFrac: -1, UnallocFrac: -1})

	hasV6 := false
	for _, p := range c.Prefixes {
		if !p.Addr().Is4() {
			hasV6 = true
			break
		}
	}
	if !hasV6 {
		t.Fatal("dual-stack collection has no IPv6 prefixes")
	}

	var bufs []io.Reader
	for _, coll := range w.VPs.Collectors() {
		var b bytes.Buffer
		if err := ExportMRT(&b, c, coll.Name, 7); err != nil {
			t.Fatalf("export %s: %v", coll.Name, err)
		}
		bufs = append(bufs, &b)
	}
	got, _, err := ImportMRT(w, bufs)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if len(got.Records) != len(c.Records) {
		t.Fatalf("records: %d vs %d", len(got.Records), len(c.Records))
	}
	gotV6 := 0
	for _, p := range got.Prefixes {
		if !p.Addr().Is4() {
			gotV6++
		}
	}
	if gotV6 == 0 {
		t.Error("IPv6 prefixes lost in the MRT round trip")
	}
}
