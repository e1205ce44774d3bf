package relation_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/cone"
	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/cti"
	"countryrank/internal/metrictest"
	"countryrank/internal/relation"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

// mapMemo is the memo cone.Starts and cti.Depths stood behind before
// relation.Memo moved to dense ids: a hash map keyed by the ordered ASN pair.
// Retained, with the two walks over a clean path's ASNs below, as the
// executable specification of the id-space kernels.
type mapMemo struct {
	oracle relation.Oracle
	rels   map[uint64]topology.Rel // a<<32|b → Rel(a, b)
}

func (m *mapMemo) Rel(a, b asn.ASN) topology.Rel {
	k := uint64(a)<<32 | uint64(b)
	r, ok := m.rels[k]
	if !ok {
		r = m.oracle.Rel(a, b)
		m.rels[k] = r
	}
	return r
}

// unbrokenStart is where §1.1's chain rule starts the retained chain, read
// off the path's ASNs: after the first peer↔peer link or at the provider
// side of the first provider→customer link; the origin when there is
// neither, -1 for an empty path.
func unbrokenStart(path bgp.Path, rels relation.Oracle) int {
	for i := 0; i+1 < len(path); i++ {
		switch rels.Rel(path[i], path[i+1]) {
		case topology.RelP2P:
			return i + 1
		case topology.RelP2C:
			return i
		}
	}
	return len(path) - 1
}

// startsRef is unbrokenStart, shrunk to the origin when a link below the
// start is anything but provider→customer.
func startsRef(ds *sanitize.Dataset, rels relation.Oracle) []int32 {
	starts := make([]int32, ds.NumPaths())
	for q := range starts {
		path := ds.CleanPath(q)
		start := unbrokenStart(path, rels)
		for j := start; j >= 0 && j+1 < len(path); j++ {
			if rels.Rel(path[j], path[j+1]) != topology.RelP2C {
				start = len(path) - 1
				break
			}
		}
		starts[q] = int32(start)
	}
	return starts
}

// depthsRef counts the provider→customer links above the origin.
func depthsRef(ds *sanitize.Dataset, rels relation.Oracle) []int32 {
	depths := make([]int32, ds.NumPaths())
	for q := range depths {
		path := ds.CleanPath(q)
		for j := len(path) - 2; j >= 0 && rels.Rel(path[j], path[j+1]) == topology.RelP2C; j-- {
			depths[q]++
		}
	}
	return depths
}

// countingOracle counts the questions it passes on, per ordered pair.
type countingOracle struct {
	relation.Oracle
	asked map[[2]asn.ASN]int
}

func (c *countingOracle) Rel(a, b asn.ASN) topology.Rel {
	c.asked[[2]asn.ASN{a, b}]++
	return c.Oracle.Rel(a, b)
}

// scrambled answers every ordered pair with whatever a hash of it says, so
// Rel(a, b) and Rel(b, a) are unrelated: a memo that read the row of the
// right-hand AS, or answered from the reverse pair, would differ.
type scrambled struct{}

func (scrambled) Rel(a, b asn.ASN) topology.Rel {
	h := (uint64(a)<<32 | uint64(b)) * 0x9e3779b97f4a7c15
	return topology.Rel(h>>62) - 1 // C2P, None, P2C, P2P
}

// randomCase draws a dataset of loop-free random paths (some empty, some a
// lone origin) over a small sparse ASN universe, a ground-truth graph over
// most of that universe (providers before their customers) whose edges the
// paths follow only by chance — so unrelated neighbours and climbs below a
// descent are common — and a table inferred from the first half of the
// paths, which therefore knows nothing about some links of the second half.
func randomCase(rng *rand.Rand) (*sanitize.Dataset, map[string]relation.Oracle) {
	universe := make([]uint32, 8+rng.Intn(30))
	for i := range universe {
		universe[i] = uint32(1000 + 37*i)
		if i%5 == 4 {
			universe[i] += 4200000000 // 4-byte ASNs: ids are not ASNs
		}
	}
	g := topology.NewGraph()
	for _, a := range universe[:len(universe)-2] { // the last two are strangers to the graph
		g.MustAddAS(topology.AS{ASN: asn.ASN(a)})
	}
	for i, a := range universe[:len(universe)-2] {
		for _, b := range universe[i+1 : len(universe)-2] {
			switch r := rng.Intn(10); {
			case r < 4:
				_ = g.AddP2C(asn.ASN(a), asn.ASN(b)) // new pair: cannot exist yet
			case r < 6:
				_ = g.AddP2P(asn.ASN(a), asn.ASN(b), 0)
			}
		}
	}
	var recs []metrictest.Rec
	var paths []bgp.Path
	for i, n := 0, 150+rng.Intn(150); i < n; i++ {
		// Up to seven distinct ASes: one path in three in any order, the rest
		// climbing the graph's order and then descending it, as a real path does.
		hops := rng.Perm(len(universe))[:rng.Intn(8)]
		if rng.Intn(3) > 0 {
			sort.Ints(hops)
			slices.Reverse(hops[:rng.Intn(len(hops)+1)])
		}
		rec := metrictest.Rec{VP: rng.Intn(3), Prefix: fmt.Sprintf("9.%d.%d.0/24", i/250, i%250), PrefixCountry: "US"}
		var path bgp.Path
		for _, k := range hops {
			rec.Path, path = append(rec.Path, universe[k]), append(path, asn.ASN(universe[k]))
		}
		recs = append(recs, rec)
		if len(path) > 0 {
			paths = append(paths, path)
		}
	}
	ds := metrictest.Dataset([]countries.Code{"US", "AU", "JP"}, recs)
	half := paths[:len(paths)/2]
	return ds, map[string]relation.Oracle{
		"graph":     g,
		"inferred":  relation.Infer(half, relation.InferClique(half, 4)),
		"scrambled": scrambled{},
	}
}

// TestKernelsMatchMapMemoReference: cone.Starts and cti.Depths, which walk a
// path's dense ids through relation.Memo, give what the walks over its ASNs
// through the retained map memo give — on random datasets under a
// ground-truth graph, an inferred table with gaps and an oracle with no
// symmetry at all — and ask their oracle exactly once per distinct ordered
// pair, the pairs the reference asked about.
func TestKernelsMatchMapMemoReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	answers := map[string]map[topology.Rel]int{}
	shapes := map[string]int{}
	for round := 0; round < 60; round++ {
		ds, oracles := randomCase(rng)
		for name, oracle := range oracles {
			for kernel, run := range map[string][2]func(*sanitize.Dataset, relation.Oracle) []int32{
				"cone.Starts": {cone.Starts, startsRef},
				"cti.Depths":  {cti.Depths, depthsRef},
			} {
				counted := &countingOracle{oracle, map[[2]asn.ASN]int{}}
				ref := &mapMemo{oracle, map[uint64]topology.Rel{}}
				got, want := run[0](ds, counted), run[1](ds, ref)
				if len(got) != len(want) {
					t.Fatalf("round %d, %s oracle: %s covers %d paths of %d", round, name, kernel, len(got), len(want))
				}
				for q := range want {
					if got[q] != want[q] {
						t.Fatalf("round %d, %s oracle: %s of path %v = %d, the map-memo reference gives %d",
							round, name, kernel, ds.CleanPath(q), got[q], want[q])
					}
				}
				if len(counted.asked) != len(ref.rels) {
					t.Fatalf("round %d, %s oracle: %s asked about %d distinct ordered pairs, the reference about %d",
						round, name, kernel, len(counted.asked), len(ref.rels))
				}
				for pair, n := range counted.asked {
					if _, ok := ref.rels[uint64(pair[0])<<32|uint64(pair[1])]; !ok || n != 1 {
						t.Fatalf("round %d, %s oracle: %s asked about %v %d times (in the reference's set: %v)", round, name, kernel, pair, n, ok)
					}
				}
				if answers[name] == nil {
					answers[name] = map[topology.Rel]int{}
				}
				for _, r := range ref.rels {
					answers[name][r]++
				}
			}
		}
		// What the random paths exercise, by the graph's chain rule: empty
		// paths, chains kept whole or in part, and chains a later link broke.
		ref := &mapMemo{oracles["graph"], map[uint64]topology.Rel{}}
		for q, start := range startsRef(ds, ref) {
			path := ds.CleanPath(q)
			switch first := unbrokenStart(path, ref); {
			case start < 0:
				shapes["empty"]++
			case first < len(path)-1 && int(start) == len(path)-1:
				shapes["broken"]++
			case int(start) < len(path)-1:
				shapes["chain"]++
			default:
				shapes["origin only"]++
			}
		}
	}
	for name, seen := range answers {
		for _, r := range []topology.Rel{topology.RelNone, topology.RelP2C, topology.RelC2P, topology.RelP2P} {
			if seen[r] == 0 {
				t.Errorf("the %s oracle never answered %v", name, r)
			}
		}
	}
	for _, shape := range []string{"empty", "broken", "chain", "origin only"} {
		if shapes[shape] < 50 {
			t.Errorf("only %d paths of shape %q", shapes[shape], shape)
		}
	}
}

// TestMemoAsksOncePerOrderedPair: a memo answers in id space what its
// oracle answers about the ids' ASNs, direction included, and repeats no
// question. The ids' ASNs are out of order, so an id taken for an ASN, or a
// row read by its column, would show.
func TestMemoAsksOncePerOrderedPair(t *testing.T) {
	rels := metrictest.Rels{P2C: [][2]uint32{{1, 2}, {4, 0}}, P2P: [][2]uint32{{2, 3}}}
	under := &countingOracle{rels, map[[2]asn.ASN]int{}}
	asnOf := []asn.ASN{3, 0, 4, 2, 1}
	m := relation.NewMemo(under, asnOf)
	for round := 0; round < 3; round++ {
		for a, asnA := range asnOf {
			for b, asnB := range asnOf {
				if got, want := m.Rel(int32(a), int32(b)), rels.Rel(asnA, asnB); got != want {
					t.Fatalf("round %d: memo Rel(%d, %d) = %v, oracle says Rel(%v, %v) = %v", round, a, b, got, asnA, asnB, want)
				}
			}
		}
	}
	if len(under.asked) != 25 {
		t.Fatalf("oracle saw %d distinct pairs, want 25", len(under.asked))
	}
	for pair, n := range under.asked {
		if n != 1 {
			t.Fatalf("oracle asked about %v %d times", pair, n)
		}
	}
}

// TestMemoBytesAtW05 bounds what the memo costs at the benchmark's world
// size: one row per AS that ever stands on the left of a link (408 of 1,203
// ids at seed 1, about 0.5 MB). A full id × id table would be 1.4 MB here
// and quadratic from there; the bound is what keeps the row layout from
// silently becoming one.
func TestMemoBytesAtW05(t *testing.T) {
	p := core.NewPipeline(core.Options{Seed: 1, StubScale: 0.5, VPScale: 0.5})
	for name, kernel := range map[string]func(*sanitize.Dataset, relation.Oracle) []int32{
		"cone.Starts": cone.Starts, "cti.Depths": cti.Depths,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := kernel(p.DS, p.Rels)
		runtime.ReadMemStats(&after)
		memo := int(after.TotalAlloc-before.TotalAlloc) - 4*len(out)
		t.Logf("%s: %d ids, %d paths, memo %d bytes", name, p.DS.NumAS(), len(out), memo)
		if memo > 1<<20 {
			t.Errorf("%s allocates %d bytes beside its result over %d ids, want at most 1 MiB", name, memo, p.DS.NumAS())
		}
	}
}
