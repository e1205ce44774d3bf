package cone

import (
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/countries"
	"countryrank/internal/metrictest"
	"countryrank/internal/relation"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

// TestRecursiveInflates demonstrates the inflation §1.1 describes: a
// provider observed transiting for a customer on ONE path inherits the
// customer's whole cone under recursion, even prefixes never observed
// downstream of the provider.
func TestRecursiveInflates(t *testing.T) {
	rels := metrictest.Rels{
		P2C: [][2]uint32{{1, 2}, {2, 3}, {2, 4}},
	}
	// Path via 1 only reaches 3's prefix; 4's prefix is observed only on a
	// path that does not cross 1.
	ds := metrictest.Dataset([]countries.Code{"US", "US"}, []metrictest.Rec{
		{VP: 0, Prefix: "9.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 2, 3}},
		{VP: 1, Prefix: "9.1.0.0/24", PrefixCountry: "US", Path: []uint32{2, 4}},
	})

	observed := Compute(ds, nil, rels)
	recursive := ComputeRecursive(ds, nil, rels)

	// Observed-path rule: 1's cone holds only 3's prefix.
	if observed.Addresses[1] != 256 {
		t.Errorf("observed cone(1) = %d, want 256", observed.Addresses[1])
	}
	// Recursive closure: 1 inherits 2's full cone, including 4's prefix.
	if recursive.Addresses[1] != 512 {
		t.Errorf("recursive cone(1) = %d, want 512", recursive.Addresses[1])
	}
	// The recursion never shrinks anyone's cone.
	for a, v := range observed.Addresses {
		if recursive.Addresses[a] < v {
			t.Errorf("recursive cone(%v) = %d < observed %d", a, recursive.Addresses[a], v)
		}
	}
	if observed.Total != recursive.Total {
		t.Errorf("scopes differ: %d vs %d", observed.Total, recursive.Total)
	}
}

// TestRecursiveOnWorldInflation quantifies the inflation on a generated
// world: the recursive variant must be a superset, and strictly larger for
// some transit AS.
func TestRecursiveOnWorldInflation(t *testing.T) {
	ds, rels := worldDataset(t)
	observed := Compute(ds, nil, rels)
	recursive := ComputeRecursive(ds, nil, rels)
	inflated := 0
	for a, v := range recursive.Addresses {
		if v < observed.Addresses[a] {
			t.Fatalf("recursive cone(%v) shrank", a)
		}
		if v > observed.Addresses[a] {
			inflated++
		}
	}
	if inflated == 0 {
		t.Error("expected at least one inflated cone on a real-shaped world")
	}
}

// ComputeRecursive is the ablation variant §1.1 warns against: instead of
// only crediting an AS with prefixes observed downstream of it on actual
// paths, it collects every observed provider→customer link and takes the
// transitive closure, so a provider inherits its customers' entire cones
// even along never-observed combinations. Comparing it with Compute
// quantifies the cone inflation that motivates the observed-path rule.
func ComputeRecursive(ds *sanitize.Dataset, recs []int32, rels relation.Oracle) Scores {
	// Observed p2c links and per-AS directly-originated/observed prefixes,
	// keyed by dense AS id.
	links := map[int32]map[int32]struct{}{}
	own := map[int32]map[int32]struct{}{}
	seenPrefix := map[int32]struct{}{}
	memo := relation.NewMemo(rels, ds.ASNOf)

	each(ds, recs, func(i int) {
		_, pfxIdx, path := ds.RecordIDs(i)
		seenPrefix[pfxIdx] = struct{}{}
		start := chainStart(path, memo)
		if start < 0 {
			return
		}
		o := path[len(path)-1]
		set := own[o]
		if set == nil {
			set = map[int32]struct{}{}
			own[o] = set
		}
		set[pfxIdx] = struct{}{}
		for j := start; j+1 < len(path); j++ {
			if memo.Rel(path[j], path[j+1]) != topology.RelP2C {
				break
			}
			m := links[path[j]]
			if m == nil {
				m = map[int32]struct{}{}
				links[path[j]] = m
			}
			m[path[j+1]] = struct{}{}
		}
	})

	// Transitive closure by DFS with memoized prefix sets.
	memoized := map[int32]map[int32]struct{}{}
	var visit func(a int32, onPath map[int32]bool) map[int32]struct{}
	visit = func(a int32, onPath map[int32]bool) map[int32]struct{} {
		if got, ok := memoized[a]; ok {
			return got
		}
		if onPath[a] {
			return nil // defensive: inferred relationship cycles
		}
		onPath[a] = true
		out := map[int32]struct{}{}
		for pfx := range own[a] {
			out[pfx] = struct{}{}
		}
		for c := range links[a] {
			for pfx := range visit(c, onPath) {
				out[pfx] = struct{}{}
			}
		}
		delete(onPath, a)
		memoized[a] = out
		return out
	}

	s := Scores{Addresses: map[asn.ASN]uint64{}}
	for p := range seenPrefix {
		s.Total += ds.Weight[p]
	}
	all := map[int32]bool{}
	for a := range links {
		all[a] = true
	}
	for a := range own {
		all[a] = true
	}
	for a := range all {
		var sum uint64
		for p := range visit(a, map[int32]bool{}) {
			sum += ds.Weight[p]
		}
		s.Addresses[ds.ASNOf[a]] = sum
	}
	return s
}
