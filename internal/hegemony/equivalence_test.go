package hegemony_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/hegemony"
	"countryrank/internal/metrictest"
	"countryrank/internal/routing"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
)

var trims = []float64{-1, 0, 0.10, 0.25}

// TestDenseMatchesMapReference is the kernel's equivalence property: over
// several generated worlds, views, and trim settings, the dense-id kernel
// must produce byte-identical Scores to the map-based reference.
func TestDenseMatchesMapReference(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		p := core.NewPipeline(core.Options{Seed: seed, StubScale: 0.15, VPScale: 0.2})
		for name, recs := range denseViews(p) {
			for _, trim := range trims {
				got := hegemony.Compute(p.DS, recs, trim)
				want := hegemony.ComputeMapRef(p.DS, recs, trim)
				if got.VPCount != want.VPCount {
					t.Fatalf("seed %d %s trim %v: VPCount %d != %d",
						seed, name, trim, got.VPCount, want.VPCount)
				}
				if !reflect.DeepEqual(got.Hegemony, want.Hegemony) {
					t.Fatalf("seed %d %s trim %v: dense kernel diverges from map reference (%d vs %d ASes)",
						seed, name, trim, len(got.Hegemony), len(want.Hegemony))
				}
			}
		}
	}
}

// TestRecordOrderNeverMatters: a view's records are summed in the order the
// view lists them, and hegemony's sums are exact integers, so Compute over
// any permutation of a view's records is Compute over the view, bit for bit
// (every record's permutation is read as a view, not as the full view).
func TestRecordOrderNeverMatters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, seed := range []int64{1, 5} {
		p := core.NewPipeline(core.Options{Seed: seed, StubScale: 0.15, VPScale: 0.2})
		for name, recs := range denseViews(p) {
			shuffled := slices.Clone(recs)
			if recs == nil {
				shuffled = make([]int32, p.DS.Len())
				for i := range shuffled {
					shuffled[i] = int32(i)
				}
			}
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, trim := range trims {
				if got, want := hegemony.Compute(p.DS, shuffled, trim), hegemony.Compute(p.DS, recs, trim); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s trim %v: Compute over the shuffled records (%d VPs, %d ASes) diverges from Compute over the view (%d VPs, %d ASes)",
						seed, name, trim, got.VPCount, len(got.Hegemony), want.VPCount, len(want.Hegemony))
				}
			}
		}
	}
}

// denseViews are the views TestDenseMatchesMapReference holds to the
// reference.
func denseViews(p *core.Pipeline) map[string][]int32 {
	return map[string][]int32{
		"global":          nil,
		"intl-AU":         p.ViewRecords(core.International, "AU"),
		"intl-RU":         p.ViewRecords(core.International, "RU"),
		"natl-AU":         p.ViewRecords(core.National, "AU"),
		"outbound-JP":     p.ViewRecords(core.Outbound, "JP"),
		"empty-natl-none": p.ViewRecords(core.National, "ZZ"),
	}
}

// perVPCase is one view with the VP selections its PerVP must combine as
// Compute would score the selected VPs' records.
type perVPCase struct {
	name string
	ds   *sanitize.Dataset
	view []int32
	pv   *hegemony.PerVP
	runs [][]int32 // metrictest.VPRuns(ds, view)
	sels [][]int32 // nil selects every VP
}

func newPerVPCase(name string, ds *sanitize.Dataset, view []int32, rng *rand.Rand) perVPCase {
	c := perVPCase{name: name, ds: ds, view: view,
		pv: hegemony.Accumulate(ds, view), runs: metrictest.VPRuns(ds, view)}
	c.sels = [][]int32{nil, {}}
	if n := len(c.runs); n > 0 {
		all := make([]int32, n)
		for k, j := range rng.Perm(n) {
			all[k] = int32(j)
		}
		c.sels = append(c.sels, all, all[:1], all[:1+rng.Intn(n)], all[rng.Intn(n):])
		c.sels = append(c.sels, quarterSels(ds, c.runs, rng)...)
		c.sels = append(c.sels, wordSels(c.pv)...)
	}
	return c
}

// quarterSels draws the view's VPs in random order and returns the longest
// prefix of the draw holding less than a quarter of the view's (AS, VP)
// shares, and that prefix with the next VP: selections of middling size,
// neither a few VPs nor nearly all.
func quarterSels(ds *sanitize.Dataset, runs [][]int32, rng *rand.Rand) [][]int32 {
	shares := make([]int, len(runs))
	total := 0
	for p, run := range runs {
		shares[p] = sharesOf(ds, run)
		total += shares[p]
	}
	order := make([]int32, len(runs))
	for k, j := range rng.Perm(len(order)) {
		order[k] = int32(j)
	}
	held := 0
	for k, p := range order {
		if held += shares[p]; held*4 >= total {
			return [][]int32{order[:k], order[:k+1]}
		}
	}
	panic("the whole view holds less than a part of its shares")
}

// sharesOf counts the shares a VP's run of records gives: one per distinct
// AS on its paths, none when its prefixes carry no weight.
func sharesOf(ds *sanitize.Dataset, run []int32) int {
	ases, total := map[int32]bool{}, uint64(0)
	for _, i := range run {
		_, pfx, ids := ds.RecordIDs(int(i))
		total += ds.Weight[pfx]
		for _, id := range ids {
			ases[id] = true
		}
	}
	if total == 0 {
		return 0
	}
	return len(ases)
}

// wordSels selects the VPs owning the shares at positions 63, 64 and 65 of
// the view's rows, alone and together: Each marks selected shares in 64-bit
// words, and these straddle the first boundary.
func wordSels(pv *hegemony.PerVP) [][]int32 {
	if pv.Pairs() <= 65 {
		return nil
	}
	a, b, c := pv.OwnerOf(63), pv.OwnerOf(64), pv.OwnerOf(65)
	sels := [][]int32{{a}, {b}, {c}}
	if a != b {
		sels = append(sels, []int32{a, b})
	}
	if a != b && b != c && a != c {
		sels = append(sels, []int32{c, a, b})
	}
	return sels
}

// check scores every selection at every trim twice back to back — a count or
// a mark the first call left behind in the pooled scratch would skew the
// second — against Compute (and, with ref, the map reference) over the
// selected VPs' records: through Scores, then through Each, which must name
// every AS once.
func (c perVPCase) check(report func(format string, args ...any), ref bool) {
	if c.pv.VPs() != len(c.runs) {
		report("%s: PerVP holds %d VPs, the view has %d", c.name, c.pv.VPs(), len(c.runs))
		return
	}
	for _, sel := range c.sels {
		recs := c.view
		if sel != nil {
			recs = metrictest.RecordsOf(c.runs, sel)
		}
		for _, trim := range trims {
			want := hegemony.Compute(c.ds, recs, trim)
			if ref && !reflect.DeepEqual(want, hegemony.ComputeMapRef(c.ds, recs, trim)) {
				report("%s sel %v trim %v: Compute diverges from the map reference", c.name, sel, trim)
			}
			if got := c.pv.Scores(sel, trim); !reflect.DeepEqual(got, want) {
				report("%s sel %v trim %v: Scores (%d VPs, %d ASes) diverges from Compute over the VPs' records (%d VPs, %d ASes)",
					c.name, sel, trim, got.VPCount, len(got.Hegemony), want.VPCount, len(want.Hegemony))
			}
			got := hegemony.Scores{Hegemony: map[asn.ASN]float64{}}
			got.VPCount = c.pv.Each(sel, trim, func(a asn.ASN, v float64) {
				if _, twice := got.Hegemony[a]; twice {
					report("%s sel %v trim %v: Each yields %v twice", c.name, sel, trim, a)
				}
				got.Hegemony[a] = v
			})
			if !reflect.DeepEqual(got, want) {
				report("%s sel %v trim %v: Each after Scores (%d VPs, %d ASes) diverges from Compute over the VPs' records (%d VPs, %d ASes)",
					c.name, sel, trim, got.VPCount, len(got.Hegemony), want.VPCount, len(want.Hegemony))
			}
		}
	}
}

// weightlessVPCases: VP 1 only sees prefixes of weight 0, so it is one of
// the view's VPs — selectable, numbered — but never one of the mean's.
func weightlessVPCases(rng *rand.Rand) []perVPCase {
	ds := metrictest.Dataset([]countries.Code{"US", "US", "US", "US"}, []metrictest.Rec{
		{VP: 0, Prefix: "9.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 2, 3}},
		{VP: 1, Prefix: "9.0.1.0/24", PrefixCountry: "US", Path: []uint32{4, 2, 5}},
		{VP: 2, Prefix: "9.0.0.0/24", PrefixCountry: "US", Path: []uint32{6, 6, 2, 3}},
		{VP: 1, Prefix: "9.0.3.0/24", PrefixCountry: "US", Path: []uint32{4, 7}},
		{VP: 2, Prefix: "9.0.1.0/24", PrefixCountry: "US", Path: []uint32{6, 5}},
		{VP: 3, Prefix: "9.0.2.0/23", PrefixCountry: "US", Path: nil},
		{VP: 0, Prefix: "9.0.2.0/23", PrefixCountry: "US", Path: []uint32{1, 8}},
	})
	ds.Weight[1], ds.Weight[2] = 0, 0 // 9.0.1.0/24 and 9.0.3.0/24
	return []perVPCase{
		newPerVPCase("weightless VP, all records", ds, nil, rng),
		newPerVPCase("weightless VP, only it", ds, []int32{1, 3}, rng),
		newPerVPCase("weightless VP, reordered view", ds, []int32{4, 3, 6, 1, 0}, rng),
	}
}

// equalVPsCase: four VPs with as many shares each, each selected alone.
func equalVPsCase(rng *rand.Rand) perVPCase {
	var recs []metrictest.Rec
	for v := 0; v < 4; v++ {
		recs = append(recs, metrictest.Rec{VP: v, Prefix: fmt.Sprintf("9.0.%d.0/24", v), PrefixCountry: "US",
			Path: []uint32{uint32(10 + v), 2, uint32(3 + v%2)}})
	}
	c := newPerVPCase("equal VPs", metrictest.Dataset(make([]countries.Code, len(recs)), recs), nil, rng)
	for p := int32(0); int(p) < c.pv.VPs(); p++ {
		c.sels = append(c.sels, []int32{p})
	}
	return c
}

// TestPerVPScoresMatchCompute: combining a view's per-VP state over a VP
// selection is Compute over those VPs' records, bit for bit — the property
// core.Stability's trials rest on — for empty, single, all, random and
// middling selections and those straddling a mark word, through Scores and
// through Each; serially, then from four goroutines on the shared PerVPs,
// which under -race also shows scoring only reads them.
func TestPerVPScoresMatchCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(20230424))
	cases := append(weightlessVPCases(rng), equalVPsCase(rng))
	for _, seed := range []int64{1, 5} {
		p := core.NewPipeline(core.Options{Seed: seed, StubScale: 0.15, VPScale: 0.2})
		cases = append(cases, newPerVPCase(fmt.Sprintf("seed %d global", seed), p.DS, nil, rng))
		all := countries.All()
		picked := []countries.Code{"AU", "US", "ZZ"} // two well-populated views and an empty one
		for len(picked) < 7 {
			picked = append(picked, all[rng.Intn(len(all))])
		}
		for _, c := range picked {
			for _, kind := range []core.ViewKind{core.National, core.International} {
				cases = append(cases, newPerVPCase(fmt.Sprintf("seed %d %s %s", seed, kind, c),
					p.DS, p.ViewRecords(kind, c), rng))
			}
		}
	}

	words := 0 // views with selections around the first mark word boundary
	for _, c := range cases {
		c.check(t.Fatalf, true)
		if err := hegemony.CheckPooledScratch(); err != nil {
			t.Fatalf("after %s: %v", c.name, err)
		}
		if c.pv.Pairs() > 65 {
			words++
		}
	}
	if words < 10 {
		t.Fatalf("only %d views hold more than 65 shares; the mark word boundary goes unexercised", words)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				cases[(k+g*len(cases)/4)%len(cases)].check(t.Errorf, false) // the map reference is serial work
			}
		}(g)
	}
	wg.Wait()
	if err := hegemony.CheckPooledScratch(); err != nil {
		t.Fatalf("after the concurrent pass: %v", err)
	}
}

var sink map[asn.ASN]float64

// TestWarmComputeAllocatesOnlyItsResult pins the scratch contract from the
// allocator's side: once the pool is warm, a Compute — the per-VP runs it
// accumulates included — performs exactly the allocations of building its
// result map.
func TestWarmComputeAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	p := core.NewPipeline(core.Options{Seed: 1, StubScale: 0.15, VPScale: 0.2})
	for name, recs := range map[string][]int32{"global": nil, "intl-US": p.ViewRecords(core.International, "US")} {
		full := hegemony.Compute(p.DS, recs, -1) // warms the pool
		if len(full.Hegemony) == 0 {
			t.Fatalf("%s scored nothing", name)
		}
		asns := make([]asn.ASN, 0, len(full.Hegemony))
		for a := range full.Hegemony {
			asns = append(asns, a)
		}
		mapOnly := testing.AllocsPerRun(20, func() {
			m := make(map[asn.ASN]float64, len(asns))
			for _, a := range asns {
				m[a] = 1
			}
			sink = m // on the heap, like a returned result
		})
		kernel := testing.AllocsPerRun(20, func() { sink = hegemony.Compute(p.DS, recs, -1).Hegemony })
		if kernel != mapOnly {
			t.Errorf("warm %s Compute allocates %.0f objects, its result map alone %.0f", name, kernel, mapOnly)
		}
	}
}

// pathRuns counts the maximal stretches of records that share a VP and a
// path index in view order, VP by VP: the hop walks accumulate makes.
func pathRuns(ds *sanitize.Dataset, view []int32) int {
	n := 0
	for _, run := range metrictest.VPRuns(ds, view) {
		for k, i := range run {
			if k == 0 || ds.PathIndex(int(i)) != ds.PathIndex(int(run[k-1])) {
				n++
			}
		}
	}
	return n
}

// storedRunsCase: every record, where in stored order VP 0's run on path
// 1 2 3 is interrupted by VP 1's record and then resumes, and VP 0's path
// 1 5 comes back after another path — a VP's (VP, path) run the full view's
// stored-order walk meets twice, and a path it walks twice.
func storedRunsCase(t *testing.T) *sanitize.Dataset {
	ds := metrictest.Dataset([]countries.Code{"US", "US", "US"}, []metrictest.Rec{
		{VP: 0, Prefix: "9.0.0.0/24", PrefixCountry: "US", Path: []uint32{1, 2, 3}},
		{VP: 0, Prefix: "9.0.1.0/24", PrefixCountry: "US", Path: []uint32{1, 2, 3}},
		{VP: 1, Prefix: "9.0.2.0/24", PrefixCountry: "US", Path: []uint32{4, 2, 3}},
		{VP: 0, Prefix: "9.0.2.0/23", PrefixCountry: "US", Path: []uint32{1, 2, 3}},
		{VP: 0, Prefix: "9.0.4.0/24", PrefixCountry: "US", Path: []uint32{1, 5}},
		{VP: 1, Prefix: "9.0.0.0/24", PrefixCountry: "US", Path: []uint32{4, 2, 5, 5}},
		{VP: 0, Prefix: "9.0.5.0/24", PrefixCountry: "US", Path: []uint32{1, 6}},
		{VP: 0, Prefix: "9.0.8.0/22", PrefixCountry: "US", Path: []uint32{1, 5}},
		{VP: 2, Prefix: "9.0.4.0/24", PrefixCountry: "US", Path: []uint32{7, 6, 5}},
	})
	stored, pairs := 0, map[[2]int32]bool{}
	for i := 0; i < ds.Len(); i++ {
		if i == 0 || ds.VPIndex(i) != ds.VPIndex(i-1) || ds.PathIndex(i) != ds.PathIndex(i-1) {
			stored++
		}
		pairs[[2]int32{ds.VPIndex(i), ds.PathIndex(i)}] = true
	}
	if byVP := pathRuns(ds, nil); stored <= byVP || len(pairs) >= byVP {
		t.Fatalf("stored order has %d (VP, path) runs, VP order %d, over %d (VP, path) pairs: no run is interrupted or no path repeats",
			stored, byVP, len(pairs))
	}
	return ds
}

// TestPathRunsMatchMapReference: accumulate sums the weights of consecutive
// records on one path and walks the path once, and nothing about how records
// are ordered may show in the scores. So Compute and Accumulate + Scores
// equal the per-record map reference where every path's records are
// adjacent (the generator's order), where they are as an MRT dump lists them
// (a round trip of the same world), where they are not adjacent at all
// (views shuffled, with records repeated; every record as stored with a run
// interrupted and a path repeated), and where a run has nothing to walk or
// nothing to weigh (an empty clean path, weightless prefixes) — from four
// goroutines at once, leaving the pooled scratch zeroed.
func TestPathRunsMatchMapReference(t *testing.T) {
	type view struct {
		name string
		ds   *sanitize.Dataset
		recs []int32
	}
	rng := rand.New(rand.NewSource(16))
	opt := core.Options{Seed: 5, StubScale: 0.1, VPScale: 0.15}
	w := topology.Build(topology.Config{Seed: opt.Seed, StubScale: opt.StubScale, VPScale: opt.VPScale})
	p := core.NewPipelineFrom(w, routing.BuildCollection(w, opt.Routing), opt)

	var streams []io.Reader
	for _, coll := range p.VPs.Collectors() {
		var b bytes.Buffer
		if err := routing.ExportMRT(&b, p.Col, coll.Name, 1617235200); err != nil {
			t.Fatalf("export %s: %v", coll.Name, err)
		}
		streams = append(streams, &b)
	}
	imported, _, err := routing.ImportMRT(w, streams)
	if err != nil {
		t.Fatal(err)
	}
	mrt := core.NewPipelineFrom(w, imported, opt)

	var views []view
	for _, src := range []struct {
		name string
		p    *core.Pipeline
	}{{"generator", p}, {"MRT round trip", mrt}} {
		for name, recs := range map[string][]int32{
			"global":  nil,
			"intl-US": src.p.ViewRecords(core.International, "US"),
			"natl-AU": src.p.ViewRecords(core.National, "AU"),
		} {
			views = append(views, view{src.name + " " + name, src.p.DS, recs})
		}
	}
	for _, v := range views[:3] { // the generator's, scrambled
		recs := v.recs
		if recs == nil {
			recs = make([]int32, v.ds.Len())
			for i := range recs {
				recs[i] = int32(i)
			}
		}
		mixed := append(slices.Clone(recs), recs[:len(recs)/10]...) // a tenth of the records twice
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		if len(recs) > 0 && pathRuns(v.ds, mixed) <= pathRuns(v.ds, recs) {
			t.Fatalf("%s: shuffling left %d path runs of %d; non-adjacent runs go unexercised",
				v.name, pathRuns(v.ds, mixed), pathRuns(v.ds, recs))
		}
		views = append(views, view{v.name + " shuffled", v.ds, mixed})
	}
	for _, c := range weightlessVPCases(rng) { // an empty clean path; a VP whose prefixes all weigh 0
		views = append(views, view{c.name, c.ds, c.view})
	}
	views = append(views, view{"stored order, a run interrupted and a path repeated", storedRunsCase(t), nil})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range views {
				v := views[(k+g)%len(views)]
				for _, trim := range []float64{-1, 0} {
					want := hegemony.ComputeMapRef(v.ds, v.recs, trim)
					if got := hegemony.Compute(v.ds, v.recs, trim); !reflect.DeepEqual(got, want) {
						t.Errorf("%s trim %v: Compute (%d VPs, %d ASes) diverges from the map reference (%d VPs, %d ASes)",
							v.name, trim, got.VPCount, len(got.Hegemony), want.VPCount, len(want.Hegemony))
					}
					if got := hegemony.Accumulate(v.ds, v.recs).Scores(nil, trim); !reflect.DeepEqual(got, want) {
						t.Errorf("%s trim %v: Accumulate + Scores diverges from the map reference", v.name, trim)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := hegemony.CheckPooledScratch(); err != nil {
		t.Fatal(err)
	}
}
