package cti_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/core"
	"countryrank/internal/cti"
	"countryrank/internal/metrictest"
)

// refViews are the views the dense kernel is held to the reference over.
func refViews(p *core.Pipeline) map[string][]int32 {
	return map[string][]int32{
		"global":  nil,
		"intl-AU": p.ViewRecords(core.International, "AU"),
		"intl-JP": p.ViewRecords(core.International, "JP"),
		"intl-RU": p.ViewRecords(core.International, "RU"),
		"empty":   p.ViewRecords(core.International, "ZZ"),
	}
}

// TestDenseMatchesMapReference: the dense kernel sums each (AS, VP) cell's
// w/k terms in the order of that VP's records in the view, as the map-based
// reference does, so even its float sums must match the reference bit for
// bit. Every view is scored twice back to back — a cell, mark or total the
// first call left in the pooled scratch would skew the second — and then
// from four goroutines at once, leaving the pool zeroed.
func TestDenseMatchesMapReference(t *testing.T) {
	type run struct {
		name string
		p    *core.Pipeline
		recs []int32
		trim float64
		want cti.Scores
	}
	var runs []run
	for _, seed := range []int64{1, 5} {
		p := core.NewPipeline(core.Options{Seed: seed, StubScale: 0.15, VPScale: 0.2})
		for name, recs := range refViews(p) {
			for _, trim := range []float64{-1, 0, 0.10} {
				runs = append(runs, run{name, p, recs, trim, cti.ComputeMapRef(p.DS, recs, p.Rels, trim)})
			}
		}
	}
	check := func(report func(string, ...any), r run) {
		got := cti.Compute(r.p.DS, r.recs, r.p.Rels, r.trim)
		if got.VPCount != r.want.VPCount || !reflect.DeepEqual(got.CTI, r.want.CTI) {
			report("%s trim %v: dense kernel (%d VPs, %d ASes) diverges from map reference (%d VPs, %d ASes)",
				r.name, r.trim, got.VPCount, len(got.CTI), r.want.VPCount, len(r.want.CTI))
		}
	}
	for _, r := range runs {
		check(t.Fatalf, r)
		check(t.Fatalf, r)
		if err := cti.CheckPooledScratch(); err != nil {
			t.Fatalf("after %s: %v", r.name, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range runs {
				check(t.Errorf, runs[(k+g*len(runs)/4)%len(runs)])
			}
		}(g)
	}
	wg.Wait()
	if err := cti.CheckPooledScratch(); err != nil {
		t.Fatalf("after the concurrent pass: %v", err)
	}
}

// TestRecordOrderNeverMatters: only the order of each VP's own records can
// show in a float sum, so Compute over any interleaving of the view's VPs
// that keeps each VP's records in their order is the map reference over the
// view, bit for bit.
func TestRecordOrderNeverMatters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, seed := range []int64{1, 5} {
		p := core.NewPipeline(core.Options{Seed: seed, StubScale: 0.15, VPScale: 0.2})
		for name, recs := range refViews(p) {
			runs := metrictest.VPRuns(p.DS, recs)
			var turns []int // one entry per record, naming its VP's run
			for r, run := range runs {
				for range run {
					turns = append(turns, r)
				}
			}
			rng.Shuffle(len(turns), func(i, j int) { turns[i], turns[j] = turns[j], turns[i] })
			mixed, next := []int32{}, make([]int, len(runs))
			for _, r := range turns {
				mixed = append(mixed, runs[r][next[r]])
				next[r]++
			}
			for _, trim := range []float64{-1, 0} {
				got, want := cti.Compute(p.DS, mixed, p.Rels, trim), cti.ComputeMapRef(p.DS, recs, p.Rels, trim)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s trim %v: Compute over the interleaved records (%d VPs, %d ASes) diverges from the map reference over the view (%d VPs, %d ASes)",
						seed, name, trim, got.VPCount, len(got.CTI), want.VPCount, len(want.CTI))
				}
			}
		}
	}
}

var sink map[asn.ASN]float64

// TestWarmComputeAllocatesOnlyItsResult pins the scratch contract from the
// allocator's side: once the pool is warm, a ComputeFrom performs exactly the
// allocations of building its result map.
func TestWarmComputeAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	p := core.NewPipeline(core.Options{Seed: 1, StubScale: 0.15, VPScale: 0.2})
	depths := cti.Depths(p.DS, p.Rels)
	for name, recs := range map[string][]int32{"global": nil, "intl-US": p.ViewRecords(core.International, "US")} {
		full := cti.ComputeFrom(p.DS, recs, p.Rels, depths, -1) // warms the pool
		if len(full.CTI) == 0 {
			t.Fatalf("%s scored nothing", name)
		}
		asns := make([]asn.ASN, 0, len(full.CTI))
		for a := range full.CTI {
			asns = append(asns, a)
		}
		mapOnly := testing.AllocsPerRun(20, func() {
			m := make(map[asn.ASN]float64, len(asns))
			for _, a := range asns {
				m[a] = 1
			}
			sink = m // on the heap, like a returned result
		})
		kernel := testing.AllocsPerRun(20, func() { sink = cti.ComputeFrom(p.DS, recs, p.Rels, depths, -1).CTI })
		if kernel != mapOnly {
			t.Errorf("warm %s ComputeFrom allocates %.0f objects, its result map alone %.0f", name, kernel, mapOnly)
		}
	}
}
