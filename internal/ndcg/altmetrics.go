package ndcg

import (
	"slices"

	"countryrank/internal/asn"
)

// The paper justifies NDCG over simpler list-comparison measures (§4.1);
// KendallTau and Jaccard implement the obvious alternatives so the choice
// can be ablated: Jaccard sees only membership (no ordering), Kendall tau
// sees only ordering of the common members (no relevance weighting), while
// NDCG weighs both, emphasizing the head of the list.

// KendallTau computes the rank correlation of the two top-k lists over
// their common members: the fraction of concordant minus discordant pairs,
// in [-1, 1]. Lists with fewer than two common members return 0. Each list
// holds distinct ASNs, as a ranking does; the lists are scanned, not indexed:
// at k entries a map costs more to build than it saves.
func KendallTau(a, b []asn.ASN, k int) float64 {
	a, b = topK(a, k), topK(b, k)
	// posA lists, in b's order, where each common member sits in a.
	var buf [DefaultK]int
	posA := buf[:0]
	for _, x := range b {
		if i := slices.Index(a, x); i >= 0 {
			posA = append(posA, i)
		}
	}
	n := len(posA)
	if n < 2 {
		return 0
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if posA[i] < posA[j] { // b ranks the i-th before the j-th too
				concordant++
			} else {
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs)
}

// Jaccard returns the membership overlap of the two top-k lists of distinct
// ASNs: |A ∩ B| / |A ∪ B|, in [0, 1]. Two empty lists return 1.
func Jaccard(a, b []asn.ASN, k int) float64 {
	a, b = topK(a, k), topK(b, k)
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for _, x := range b {
		if slices.Contains(a, x) {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}
