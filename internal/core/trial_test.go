package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/cone"
	"countryrank/internal/countries"
	"countryrank/internal/hegemony"
	"countryrank/internal/metrictest"
	"countryrank/internal/rank"
)

// TestTrialDrawMatchesRandPerm is the seed contract as code: a pooled draw —
// one that has already served other seeds and a longer permutation included —
// returns the positions a fresh generator's Perm starts with. It fails if the
// re-Seed is forgotten or the shuffle makes its Intn calls in another order.
func TestTrialDrawMatchesRandPerm(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	fresh := func(seed int64, vps, n int) []int32 {
		out := make([]int32, n)
		for k, j := range rand.New(rand.NewSource(seed)).Perm(vps)[:n] {
			out[k] = int32(j)
		}
		return out
	}
	used := trialDraws.Get().(*trialDraw)
	used.first(99, 700, 700)
	for round := 0; round < 300; round++ {
		seed := int64(rng.Uint64())
		vps := rng.Intn(701)
		n := rng.Intn(vps + 1)
		want := fresh(seed, vps, n)
		if got := used.first(seed, vps, n); !slices.Equal(got, want) {
			t.Fatalf("seed %d, %d of %d VPs: a used draw gives %v, rand.Perm %v", seed, n, vps, got, want)
		}
		if got := pooledFirst(seed, vps, n); !slices.Equal(got, want) {
			t.Fatalf("seed %d, %d of %d VPs: a pooled draw gives %v, rand.Perm %v", seed, n, vps, got, want)
		}
	}
	// Stability's own cells: the sub-seeds of one call, through the pool.
	for si := 0; si < 3; si++ {
		for trial := 0; trial < 5; trial++ {
			seed := subSeed(7, si, trial)
			if got, want := pooledFirst(seed, 41, 9), fresh(seed, 41, 9); !slices.Equal(got, want) {
				t.Fatalf("cell (%d, %d): pooled draw %v, rand.Perm %v", si, trial, got, want)
			}
		}
	}
	// The seed normalisation's edges — seeds ≡ 0 mod 2³¹−1 (math/rand's
	// 89482311 stand-in), negative seeds, the int64 extremes — over
	// permutations that wrap the 607-word register twice.
	const m = 1<<31 - 1
	for _, seed := range []int64{0, 1, -1, m, -m, 1 << 31, 2 * m, math.MinInt64, math.MaxInt64, 89482311} {
		for _, vps := range []int{1, 606, 607, 608, 1214, 1300} {
			want := fresh(seed, vps, vps)
			if got := used.first(seed, vps, vps); !slices.Equal(got, want) {
				t.Fatalf("seed %d, %d VPs: a used draw differs from rand.Perm", seed, vps)
			}
		}
	}
}

// FuzzTrialDraw holds the seed contract for any seed: a pooled draw that has
// served another seed returns rand.Perm's first n of vps.
func FuzzTrialDraw(f *testing.F) {
	f.Add(int64(0), uint16(10), uint16(3))
	f.Add(int64(-1), uint16(1300), uint16(1300))
	f.Add(int64(math.MinInt64), uint16(607), uint16(600))
	f.Fuzz(func(t *testing.T, seed int64, vps, n uint16) {
		v := int(vps % 1400)
		k := int(n) % (v + 1)
		want := rand.New(rand.NewSource(seed)).Perm(v)[:k]
		d := trialDraws.Get().(*trialDraw)
		defer trialDraws.Put(d)
		d.first(^seed, 700, 700)
		got := d.first(seed, v, k)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("seed %d, %d of %d VPs: draw %v, rand.Perm %v", seed, k, v, got, want)
			}
		}
	})
}

// BenchmarkTrialDraw is one trial's draw — re-seed and a whole permutation —
// at NL-national (46 VPs), AU-international (262) and every W05 VP (426), on
// the pooled source and on math/rand's own source re-seeded the same way.
func BenchmarkTrialDraw(b *testing.B) {
	for _, vps := range []int{46, 262, 426} {
		for _, src := range []struct {
			name string
			d    *trialDraw
		}{
			{"pooled", trialDraws.Get().(*trialDraw)},
			{"math-rand", &trialDraw{rng: rand.New(rand.NewSource(0))}},
		} {
			b.Run(fmt.Sprintf("vps=%d/%s", vps, src.name), func(b *testing.B) {
				for i := range b.N {
					src.d.first(subSeed(1, 0, i), vps, vps)
				}
			})
		}
	}
}

// pooledFirst is first on whatever the pool hands out, copied before the draw
// goes back.
func pooledFirst(seed int64, vps, n int) []int32 {
	d := trialDraws.Get().(*trialDraw)
	defer trialDraws.Put(d)
	return slices.Clone(d.first(seed, vps, n))
}

// topRef is the window's specification: every non-zero (AS, value) sorted as
// rank.New sorts — descending value, ascending ASN — cut at k.
func topRef[V uint64 | float64](values map[asn.ASN]V, k int) []asn.ASN {
	var asns []asn.ASN
	for a, v := range values {
		if v != 0 {
			asns = append(asns, a)
		}
	}
	slices.SortFunc(asns, func(a, b asn.ASN) int {
		if c := cmp.Compare(values[b], values[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return asns[:min(k, len(asns))]
}

// TestWindowMatchesSortedReference: a kernel's Each streamed into the top-k
// window is the head of the sorted value map — for hegemony also of rank.New
// itself — for k = 1, 10 and more than there are ASes, over generated views
// and selections on both sides of hegemony's gatherer choice, a hand-built
// view whose ASes tie (the ASN decides), and one where every value is zero
// (the window stays empty).
func TestWindowMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p := NewPipeline(smallOpts())

	// Four VPs, two paths: 20, 21 and 22 are on the same two VPs' only paths
	// and 30, 31 on the other two's, so they tie within each group; 40–43
	// are each one VP's neighbour — the trim discards their one value.
	var tied []metrictest.Rec
	for v := 0; v < 4; v++ {
		tied = append(tied, metrictest.Rec{VP: v, Prefix: fmt.Sprintf("9.0.%d.0/24", v/2), PrefixCountry: "US",
			Path: [][]uint32{{22, 20, 21}, {31, 30}}[v/2]})
		tied[v].Path = append([]uint32{uint32(40 + v)}, tied[v].Path...)
	}
	tiedDS := metrictest.Dataset(make([]countries.Code, 4), tied)
	// Three VPs that share no AS: every trimmed mean is zero.
	var apart []metrictest.Rec
	for v := 0; v < 3; v++ {
		apart = append(apart, metrictest.Rec{VP: v, Prefix: fmt.Sprintf("9.1.%d.0/24", v), PrefixCountry: "US",
			Path: []uint32{uint32(50 + v), uint32(60 + v)}})
	}
	apartDS := metrictest.Dataset(make([]countries.Code, 3), apart)

	type view struct {
		name string
		pv   *hegemony.PerVP
		ws   *cone.Witnesses
	}
	views := []view{
		{"tied", hegemony.Accumulate(tiedDS, nil), cone.Witness(tiedDS, nil, cone.Starts(tiedDS, metrictest.Rels{P2C: [][2]uint32{{22, 20}, {20, 21}, {31, 30}}}))},
		{"apart", hegemony.Accumulate(apartDS, nil), cone.Witness(apartDS, nil, cone.Starts(apartDS, metrictest.Rels{}))},
	}
	for name, recs := range map[string][]int32{
		"global":  nil,
		"intl-AU": p.ViewRecords(International, "AU"),
		"natl-US": p.ViewRecords(National, "US"),
	} {
		views = append(views, view{name, hegemony.Accumulate(p.DS, recs), cone.Witness(p.DS, recs, p.coneStarts)})
	}

	if tiedScores := views[0].pv.Scores(nil, -1).Hegemony; tiedScores[20] == 0 || tiedScores[20] != tiedScores[21] ||
		tiedScores[21] != tiedScores[22] || tiedScores[30] == 0 || tiedScores[30] != tiedScores[31] {
		t.Fatalf("tied view does not tie: %v", tiedScores)
	}
	apartScores := views[1].pv.Scores(nil, -1).Hegemony
	for a, v := range apartScores {
		if v != 0 {
			t.Fatalf("apart view: AS %v scores %v, want every value zero", a, v)
		}
	}
	if len(apartScores) != 6 {
		t.Fatalf("apart view scores %d ASes, want its 6 (at zero)", len(apartScores))
	}

	for _, v := range views {
		vps := v.pv.VPs()
		if v.ws.VPs() != vps {
			t.Fatalf("%s: %d and %d VPs", v.name, vps, v.ws.VPs())
		}
		sels := [][]int32{nil, {}}
		for _, n := range []int{1, 2, vps / 8, vps / 2, vps} {
			if n >= 1 && n <= vps {
				sels = append(sels, pooledFirst(rng.Int63(), vps, n))
			}
		}
		for _, sel := range sels {
			scores := v.pv.Scores(sel, -1).Hegemony
			addrs := map[asn.ASN]uint64{}
			v.ws.Each(sel, func(a asn.ASN, size uint64) { addrs[a] = size })
			for _, k := range []int{1, 10, len(scores) + 5} {
				hw := newTopK[float64](k)
				v.pv.Each(sel, -1, hw.add)
				if got, want := hw.asns(), topRef(scores, k); !slices.Equal(got, want) {
					t.Fatalf("%s sel %v k=%d: hegemony window %v, sorted reference %v", v.name, sel, k, got, want)
				}
				if got, want := hw.asns(), rank.New("", scores, nil, true).TopASNs(k); !slices.Equal(got, want) {
					t.Fatalf("%s sel %v k=%d: hegemony window %v, rank.New %v", v.name, sel, k, got, want)
				}
				cw := newTopK[uint64](k)
				v.ws.Each(sel, cw.add)
				if got, want := cw.asns(), topRef(addrs, k); !slices.Equal(got, want) {
					t.Fatalf("%s sel %v k=%d: cone window %v, sorted reference %v", v.name, sel, k, got, want)
				}
			}
		}
	}
}
