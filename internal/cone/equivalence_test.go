package cone_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/cone"
	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/metrictest"
	"countryrank/internal/relation"
	"countryrank/internal/sanitize"
)

// kernelCase is one (dataset, record selection) the kernel must agree with
// the map reference on.
type kernelCase struct {
	name string
	ds   *sanitize.Dataset
	rels relation.Oracle
	recs []int32
	// starts is cone.Starts(ds, rels), shared by the dataset's cases as
	// core.Pipeline shares it across views and trials.
	starts []int32
}

// check runs the case twice back to back — a stamp, address or prefix count
// the first call left behind in the pooled scratch would skew the second —
// and compares ComputeFrom and ASCounts with the reference.
func (c kernelCase) check(report func(format string, args ...any)) {
	want, wantASes := cone.ComputeMapRef(c.ds, c.recs, c.rels)
	for run := 0; run < 2; run++ {
		got := cone.ComputeFrom(c.ds, c.recs, c.rels, c.starts)
		if got.Total != want.Total {
			report("%s run %d: Total %d, reference %d", c.name, run, got.Total, want.Total)
		}
		if !reflect.DeepEqual(got.Addresses, want.Addresses) {
			report("%s run %d: Addresses diverge from the reference (%d vs %d ASes)",
				c.name, run, len(got.Addresses), len(want.Addresses))
		}
	}
	if got := cone.ASCounts(c.ds, c.recs, c.rels); !reflect.DeepEqual(got, wantASes) {
		report("%s: ASCounts diverge from the reference (%d vs %d ASes)", c.name, len(got), len(wantASes))
	}
}

// vpSubset returns the records of a random nonempty subset of the view's
// VPs, grouped by VP in draw order with each VP's records in view order —
// not sorted overall. recs nil means every record.
func vpSubset(ds *sanitize.Dataset, recs []int32, rng *rand.Rand) []int32 {
	runs := metrictest.VPRuns(ds, recs)
	if len(runs) == 0 {
		return []int32{}
	}
	sel := make([]int32, 1+rng.Intn(len(runs)))
	for k, j := range rng.Perm(len(runs))[:len(sel)] {
		sel[k] = int32(j)
	}
	return metrictest.RecordsOf(runs, sel)
}

// pipelineCases draws random countries × view kinds × VP subsets from a
// generated world.
func pipelineCases(opt core.Options, rng *rand.Rand) []kernelCase {
	p := core.NewPipeline(opt)
	starts := cone.Starts(p.DS, p.Rels)
	mk := func(name string, recs []int32) kernelCase {
		return kernelCase{fmt.Sprintf("seed %d %s", opt.Seed, name), p.DS, p.Rels, recs, starts}
	}
	cases := []kernelCase{
		mk("all records", nil),
		mk("empty view", p.ViewRecords(core.National, "ZZ")),
		mk("global VP subset", vpSubset(p.DS, nil, rng)),
	}
	all := countries.All()
	picked := []countries.Code{"AU", "US"} // always some well-populated views
	for len(picked) < 8 {
		picked = append(picked, all[rng.Intn(len(all))])
	}
	for _, c := range picked {
		for _, kind := range []core.ViewKind{core.National, core.International, core.Outbound} {
			view := p.ViewRecords(kind, c)
			cases = append(cases, mk(fmt.Sprintf("%s %s", kind, c), view))
			if len(view) == 0 {
				continue
			}
			sub := vpSubset(p.DS, view, rng)
			cases = append(cases, mk(fmt.Sprintf("%s %s VP subset", kind, c), sub))
			// A position named twice must change nothing.
			twice := append(append([]int32{}, sub...), sub[rng.Intn(len(sub))], sub[0])
			cases = append(cases, mk(fmt.Sprintf("%s %s repeated position", kind, c), twice))
		}
	}
	return cases
}

// emptyPathCases: a record whose clean path is empty credits no AS, but its
// prefix still counts toward Total — alone, among others, and repeated.
func emptyPathCases() []kernelCase {
	rels := metrictest.Rels{P2C: [][2]uint32{{1, 2}, {2, 3}}}
	ds := metrictest.Dataset([]countries.Code{"US", "US"}, []metrictest.Rec{
		{VP: 0, Prefix: "9.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 2, 3}},
		{VP: 0, Prefix: "9.0.1.0/24", PrefixCountry: "US", Path: nil},
		{VP: 1, Prefix: "9.0.0.0/24", PrefixCountry: "US", Path: nil},
		{VP: 1, Prefix: "9.0.2.0/23", PrefixCountry: "US", Path: []uint32{2, 3}},
	})
	starts := cone.Starts(ds, rels)
	var cases []kernelCase
	for name, recs := range map[string][]int32{
		"all":        nil,
		"only empty": {1, 2},
		"mixed":      {2, 0},
		"repeated":   {1, 3, 1, 3},
	} {
		cases = append(cases, kernelCase{"empty path, " + name, ds, rels, recs, starts})
	}
	return cases
}

// TestKernelMatchesMapReference: over generated worlds (ground-truth and
// inferred relationships, the latter exercising broken chains) and a
// hand-built dataset with empty clean paths, the prefix-bucket kernel and
// ASCounts must produce Scores identical to the retained map-based
// reference — serially, then from four goroutines at once, which under
// -race also shows that nothing but the pool is shared between calls.
func TestKernelMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20230424))
	cases := emptyPathCases()
	cases = append(cases, pipelineCases(core.Options{Seed: 1, StubScale: 0.15, VPScale: 0.2}, rng)...)
	cases = append(cases, pipelineCases(core.Options{Seed: 5, StubScale: 0.15, VPScale: 0.2, InferRelationships: true}, rng)...)

	for _, c := range cases {
		c.check(t.Fatalf)
		if err := cone.CheckPooledScratch(); err != nil {
			t.Fatalf("after %s: %v", c.name, err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				cases[(k+g*len(cases)/4)%len(cases)].check(t.Errorf)
			}
		}(g)
	}
	wg.Wait()
	if err := cone.CheckPooledScratch(); err != nil {
		t.Fatalf("after the concurrent pass: %v", err)
	}
}

// TestNilStartsResolvesThem: Compute (no precomputed starts) agrees with
// ComputeFrom over Starts.
func TestNilStartsResolvesThem(t *testing.T) {
	for _, c := range emptyPathCases() {
		if got, want := cone.Compute(c.ds, c.recs, c.rels), cone.ComputeFrom(c.ds, c.recs, c.rels, c.starts); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Compute = %+v, ComputeFrom = %+v", c.name, got, want)
		}
	}
}

var sink map[asn.ASN]uint64

// TestWarmComputeAllocatesOnlyItsResult pins the scratch contract from the
// allocator's side: once the pool is warm, a full-view ComputeFrom performs
// exactly the allocations of building its result map.
func TestWarmComputeAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	p := core.NewPipeline(core.Options{Seed: 1, StubScale: 0.15, VPScale: 0.2})
	starts := cone.Starts(p.DS, p.Rels)
	full := cone.ComputeFrom(p.DS, nil, p.Rels, starts) // warms the pool
	if len(full.Addresses) == 0 {
		t.Fatal("full view scored nothing")
	}
	asns := make([]asn.ASN, 0, len(full.Addresses))
	for a := range full.Addresses {
		asns = append(asns, a)
	}
	mapOnly := testing.AllocsPerRun(20, func() {
		m := make(map[asn.ASN]uint64, len(asns))
		for _, a := range asns {
			m[a] = 1
		}
		sink = m // on the heap, like a returned result
	})
	kernel := testing.AllocsPerRun(20, func() { sink = cone.ComputeFrom(p.DS, nil, p.Rels, starts).Addresses })
	if kernel != mapOnly {
		t.Fatalf("warm full-view ComputeFrom allocates %.0f objects, its result map alone %.0f", kernel, mapOnly)
	}
}
