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
)

// witnessCase is one view with the VP selections its Witnesses must combine
// as ComputeFrom would score the selected VPs' records.
type witnessCase struct {
	kernelCase // recs is the view
	ws         *cone.Witnesses
	runs       [][]int32 // metrictest.VPRuns(ds, recs)
	sels       [][]int32 // nil selects every VP
}

func newWitnessCase(c kernelCase, rng *rand.Rand) witnessCase {
	w := witnessCase{kernelCase: c,
		ws: cone.Witness(c.ds, c.recs, c.starts), runs: metrictest.VPRuns(c.ds, c.recs)}
	w.sels = [][]int32{nil, {}}
	if n := len(w.runs); n > 0 {
		all := make([]int32, n)
		for k, j := range rng.Perm(n) {
			all[k] = int32(j)
		}
		// The last VP position sits in the bitset's last word, next to its
		// unused bits.
		w.sels = append(w.sels, all, all[:1], all[:1+rng.Intn(n)], all[rng.Intn(n):], []int32{int32(n - 1)})
	}
	return w
}

// check combines every selection twice back to back — an address or stamp
// the first call left behind in the pooled scratch would skew the second —
// through Addresses and through Each, which must name every AS once.
func (w witnessCase) check(report func(format string, args ...any)) {
	if w.ws.VPs() != len(w.runs) {
		report("%s: Witnesses hold %d VPs, the view has %d", w.name, w.ws.VPs(), len(w.runs))
		return
	}
	for _, sel := range w.sels {
		recs := w.recs
		if sel != nil {
			recs = metrictest.RecordsOf(w.runs, sel)
		}
		want := cone.ComputeFrom(w.ds, recs, w.rels, w.starts).Addresses
		for run := 0; run < 2; run++ {
			if got := w.ws.Addresses(sel); !reflect.DeepEqual(got, want) {
				report("%s sel %v run %d: Addresses (%d ASes) diverge from ComputeFrom over the VPs' records (%d ASes)",
					w.name, sel, run, len(got), len(want))
			}
			got := map[asn.ASN]uint64{}
			w.ws.Each(sel, func(a asn.ASN, size uint64) {
				if _, twice := got[a]; twice {
					report("%s sel %v run %d: Each yields %v twice", w.name, sel, run, a)
				}
				got[a] = size
			})
			if !reflect.DeepEqual(got, want) {
				report("%s sel %v run %d: Each (%d ASes) diverges from ComputeFrom over the VPs' records (%d ASes)",
					w.name, sel, run, len(got), len(want))
			}
		}
	}
}

// TestWitnessesAddressesMatchComputeFrom: ORing a VP selection against a
// view's membership witnesses is ComputeFrom over those VPs' records, bit
// for bit — the property core.Stability's cone trials rest on. Views of 63,
// 64 and 65 VPs straddle the bitset's word boundary; the hand-built dataset
// has records with no retained chain (start −1), whose VPs are numbered but
// witness nothing. Serially, then from four goroutines on the shared
// Witnesses, which under -race also shows Each only reads them.
func TestWitnessesAddressesMatchComputeFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(20230424))
	var cases []witnessCase
	for _, c := range emptyPathCases() {
		cases = append(cases, newWitnessCase(c, rng))
	}
	for _, opt := range []core.Options{
		{Seed: 1, StubScale: 0.15, VPScale: 0.2},
		{Seed: 5, StubScale: 0.15, VPScale: 0.2, InferRelationships: true},
	} {
		p := core.NewPipeline(opt)
		starts := cone.Starts(p.DS, p.Rels)
		add := func(name string, view []int32) {
			cases = append(cases, newWitnessCase(
				kernelCase{fmt.Sprintf("seed %d %s", opt.Seed, name), p.DS, p.Rels, view, starts}, rng))
		}
		add("global", nil)
		global := metrictest.VPRuns(p.DS, nil)
		if len(global) < 65 {
			t.Fatalf("seed %d: the global view has %d VPs, the word-boundary cases need 65", opt.Seed, len(global))
		}
		first := make([]int32, 65)
		for k := range first {
			first[k] = int32(k)
		}
		for _, n := range []int{63, 64, 65} {
			add(fmt.Sprintf("first %d VPs", n), metrictest.RecordsOf(global, first[:n]))
		}
		all := countries.All()
		picked := []countries.Code{"AU", "US", "ZZ"} // two well-populated views and an empty one
		for len(picked) < 7 {
			picked = append(picked, all[rng.Intn(len(all))])
		}
		for _, c := range picked {
			for _, kind := range []core.ViewKind{core.National, core.International} {
				add(fmt.Sprintf("%s %s", kind, c), p.ViewRecords(kind, c))
			}
		}
	}

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
