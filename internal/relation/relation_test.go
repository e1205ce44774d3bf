package relation

import (
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/geoloc"
	"countryrank/internal/routing"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

func TestTableRelSymmetry(t *testing.T) {
	tbl := &Table{rels: map[[2]asn.ASN]topology.Rel{}}
	k, _ := key(1, 2)
	tbl.rels[k] = topology.RelP2C // 1 provider of 2
	if tbl.Rel(1, 2) != topology.RelP2C || tbl.Rel(2, 1) != topology.RelC2P {
		t.Error("p2c symmetry broken")
	}
	k2, flip := key(5, 3)
	if !flip {
		t.Fatal("key should canonicalize order")
	}
	tbl.rels[k2] = topology.RelP2P
	if tbl.Rel(3, 5) != topology.RelP2P || tbl.Rel(5, 3) != topology.RelP2P {
		t.Error("p2p symmetry broken")
	}
	if tbl.Rel(1, 9) != topology.RelNone || tbl.Rel(1, 1) != topology.RelNone {
		t.Error("absent relations should be none")
	}
}

func TestInferCliqueFigure1(t *testing.T) {
	// Figure 1 paths: the three peers A(10), B(20), C(30) transit the most.
	paths := []bgp.Path{
		{70, 10, 30, 40, 50},
		{70, 10, 30, 40, 60},
		{80, 20, 30, 40, 50},
		{80, 20, 30, 40, 60},
		{70, 10, 20, 80},
		{80, 20, 10, 70},
		{50, 40, 30, 10, 70},
		{50, 40, 30, 20, 80},
	}
	clique := InferClique(paths, 5)
	want := map[asn.ASN]bool{10: true, 20: true, 30: true}
	if len(clique) < 3 {
		t.Fatalf("clique = %v", clique)
	}
	for _, a := range clique {
		if !want[a] && a != 40 {
			t.Errorf("unexpected clique member %v", a)
		}
	}
	for w := range want {
		found := false
		for _, a := range clique {
			if a == w {
				found = true
			}
		}
		if !found {
			t.Errorf("clique missing %v", w)
		}
	}
}

func TestInferDownhillFromClique(t *testing.T) {
	paths := []bgp.Path{
		{70, 10, 30, 40, 50},
		{80, 20, 30, 40, 60},
	}
	tbl := Infer(paths, []asn.ASN{10, 20, 30})
	if tbl.Rel(30, 40) != topology.RelP2C {
		t.Errorf("30-40 = %v, want p2c", tbl.Rel(30, 40))
	}
	if tbl.Rel(40, 50) != topology.RelP2C || tbl.Rel(40, 60) != topology.RelP2C {
		t.Error("downhill propagation failed")
	}
	if tbl.Rel(10, 20) != topology.RelP2P || tbl.Rel(10, 30) != topology.RelP2P {
		t.Error("clique pairs should peer")
	}
	if tbl.Len() == 0 {
		t.Error("table accessors wrong")
	}
}

// TestInferOnWorld validates inference accuracy against generator ground
// truth: the headline capability the synthetic substrate adds.
func TestInferOnWorld(t *testing.T) {
	w := topology.Build(topology.Config{Seed: 11, StubScale: 0.12, VPScale: 0.15})
	col := routing.BuildCollection(w, routing.BuildOptions{})
	clique := map[asn.ASN]bool{}
	for _, a := range w.Clique {
		clique[a] = true
	}
	ds := sanitize.Run(col, sanitize.Config{
		Clique:       clique,
		Registry:     w.Graph.Registry(),
		RouteServers: w.Graph.RouteServers(),
		GeoTable:     geoloc.GeolocatePrefixes(w.Geo, col.AnnouncedPrefixes(), 0.5),
	})
	paths := ds.DistinctPaths()
	inferredClique := InferClique(paths, 25)
	gt := map[asn.ASN]bool{}
	for _, a := range w.Clique {
		gt[a] = true
	}
	hits := 0
	for _, a := range inferredClique {
		if gt[a] {
			hits++
		}
	}
	if hits < len(inferredClique)*3/4 || hits < 8 {
		t.Errorf("inferred clique %v matches only %d ground-truth members", inferredClique, hits)
	}

	tbl := Infer(paths, inferredClique)
	val := Validate(tbl, w.Graph)
	if val.Compared < 500 {
		t.Fatalf("too few compared edges: %d", val.Compared)
	}
	// The simplified Luckie variant labels 85.7 % of 875 edges on this world;
	// the residual errors are clique↔open-peer edges (see the package comment).
	if acc := val.Accuracy(); acc < 0.85 {
		t.Errorf("inference accuracy = %.3f, want ≥ 0.85 (confusion: %v)", acc, val.Confusion)
	}
}

func TestValidateEmpty(t *testing.T) {
	v := Validation{}
	if v.Accuracy() != 0 {
		t.Error("empty validation accuracy should be 0")
	}
}

func TestInferDegreeFallback(t *testing.T) {
	// No clique given: a high-transit-degree middle AS becomes the provider
	// of the low-degree edge ASes.
	paths := []bgp.Path{
		{1, 100, 2},
		{3, 100, 4},
		{5, 100, 6},
		{1, 100, 4},
		{3, 100, 2},
	}
	tbl := Infer(paths, nil)
	if tbl.Rel(100, 2) != topology.RelP2C {
		t.Errorf("100-2 = %v, want p2c via degree", tbl.Rel(100, 2))
	}
	if tbl.Rel(1, 100) != topology.RelC2P {
		t.Errorf("1-100 = %v, want c2p via degree", tbl.Rel(1, 100))
	}
}
