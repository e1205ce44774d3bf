package ndcg

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"countryrank/internal/asn"
)

func TestKendallTau(t *testing.T) {
	a := []asn.ASN{1, 2, 3, 4}
	if got := KendallTau(a, a, 10); got != 1 {
		t.Errorf("identical lists tau = %f", got)
	}
	rev := []asn.ASN{4, 3, 2, 1}
	if got := KendallTau(a, rev, 10); got != -1 {
		t.Errorf("reversed lists tau = %f", got)
	}
	// One adjacent swap among 4 elements: 5 concordant, 1 discordant → 2/3.
	swapped := []asn.ASN{2, 1, 3, 4}
	if got := KendallTau(a, swapped, 10); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("one-swap tau = %f", got)
	}
	// Disjoint or tiny overlaps return 0.
	if KendallTau(a, []asn.ASN{9, 8}, 10) != 0 {
		t.Error("disjoint lists should give 0")
	}
	if KendallTau(a, []asn.ASN{3}, 10) != 0 {
		t.Error("single common member should give 0")
	}
	// k truncation applies before comparison.
	if got := KendallTau(a, rev, 1); got != 0 {
		t.Errorf("k=1 tau = %f (no pairs)", got)
	}
}

func TestJaccard(t *testing.T) {
	a := []asn.ASN{1, 2, 3}
	if Jaccard(a, a, 10) != 1 {
		t.Error("identical lists")
	}
	if Jaccard(a, []asn.ASN{4, 5, 6}, 10) != 0 {
		t.Error("disjoint lists")
	}
	if got := Jaccard(a, []asn.ASN{2, 3, 4}, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("half-overlap = %f", got)
	}
	if Jaccard(nil, nil, 10) != 1 {
		t.Error("two empty lists are identical")
	}
	// Ordering is invisible to Jaccard — the property NDCG adds.
	if Jaccard(a, []asn.ASN{3, 2, 1}, 10) != 1 {
		t.Error("Jaccard must ignore order")
	}
}

// TestNDCGSeesWhatJaccardMisses pins the §4.1 rationale: a reordered top
// list keeps Jaccard at 1 while NDCG drops.
func TestNDCGSeesWhatJaccardMisses(t *testing.T) {
	full := []asn.ASN{1, 2, 3}
	vals := map[asn.ASN]float64{1: 0.9, 2: 0.5, 3: 0.1}
	reordered := []asn.ASN{3, 2, 1}
	if Jaccard(full, reordered, 3) != 1 {
		t.Fatal("setup: same membership")
	}
	if NDCG(reordered, vals, full, 3) >= 1 {
		t.Error("NDCG must penalize the reordering")
	}
}

// kendallTauMapRef and jaccardMapRef are the map-indexed implementations the
// scanning ones replaced, kept as their executable specification.
func kendallTauMapRef(a, b []asn.ASN, k int) float64 {
	a, b = topK(a, k), topK(b, k)
	posA := map[asn.ASN]int{}
	for i, x := range a {
		posA[x] = i
	}
	var common []asn.ASN
	posB := map[asn.ASN]int{}
	for i, x := range b {
		if _, ok := posA[x]; ok {
			posB[x] = i
			common = append(common, x)
		}
	}
	n := len(common)
	if n < 2 {
		return 0
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x, y := common[i], common[j]
			da := posA[x] - posA[y]
			db := posB[x] - posB[y]
			if da*db > 0 {
				concordant++
			} else if da*db < 0 {
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs)
}

func jaccardMapRef(a, b []asn.ASN, k int) float64 {
	a, b = topK(a, k), topK(b, k)
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inA := map[asn.ASN]bool{}
	for _, x := range a {
		inA[x] = true
	}
	union := len(a)
	inter := 0
	for _, x := range b {
		if inA[x] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// TestScansMatchMapReferences: on lists of distinct ASNs — every pairing of
// the lengths 0, 1, k−1, k and k+5, disjoint, identical, reversed and
// partially overlapping, for k = 1, 3 and 10 — scanning the lists gives the
// floats indexing them by map gave.
func TestScansMatchMapReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	distinct := func(n int, from []asn.ASN) []asn.ASN { // n ASNs: a shuffle of from's first, then fresh ones
		out := slices.Clone(from[:min(n, len(from))])
		for len(out) < n {
			if a := asn.ASN(1 + rng.Intn(1<<20)); !slices.Contains(out, a) && !slices.Contains(from, a) {
				out = append(out, a)
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	for _, k := range []int{1, 3, 10} {
		lengths := []int{0, 1, k - 1, k, k + 5}
		for _, la := range lengths {
			for _, lb := range lengths {
				for round := 0; round < 20; round++ {
					a := distinct(la, nil)
					reversed := slices.Clone(a)
					slices.Reverse(reversed)
					for name, b := range map[string][]asn.ASN{
						"disjoint":    distinct(lb, nil),
						"identical":   a,
						"reversed":    reversed,
						"overlapping": distinct(lb, a[:rng.Intn(la+1)]),
					} {
						if got, want := KendallTau(a, b, k), kendallTauMapRef(a, b, k); got != want {
							t.Fatalf("k=%d %s a=%v b=%v: KendallTau %v, map reference %v", k, name, a, b, got, want)
						}
						if got, want := Jaccard(a, b, k), jaccardMapRef(a, b, k); got != want {
							t.Fatalf("k=%d %s a=%v b=%v: Jaccard %v, map reference %v", k, name, a, b, got, want)
						}
					}
				}
			}
		}
	}
}
