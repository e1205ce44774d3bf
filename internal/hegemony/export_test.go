package hegemony

import "fmt"

// ComputeMapRef exposes the map-based reference implementation
// (reference_test.go) to the equivalence property tests.
var ComputeMapRef = computeMapRef

// Pairs returns the number of shares pv holds.
func (pv *PerVP) Pairs() int { return len(pv.share) }

// OwnerOf returns the position of the VP whose share sits at pair position
// j of pv's rows.
func (pv *PerVP) OwnerOf(j int) int32 {
	for p := range pv.scored {
		for _, k := range pv.pairAt[pv.vpOff[p]:pv.vpOff[p+1]] {
			if int(k) == j {
				return int32(p)
			}
		}
	}
	panic("no VP owns the pair")
}

// CheckPooledScratch draws Sums from the pool and verifies the pool
// invariant on each: the matrix, its marks, the per-VP totals and columns,
// the per-AS rows and Each's selection marks are all-zero over their whole
// capacity, and no dataset's ASN column is kept alive.
func CheckPooledScratch() error {
	var drawn []*Sums
	defer func() {
		for _, s := range drawn {
			scratchPool.Put(s)
		}
	}()
	for n := 0; n < 8; n++ {
		s := scratchPool.Get().(*Sums)
		drawn = append(drawn, s)
		for j, x := range s.cell[:cap(s.cell)] {
			if x != 0 {
				return fmt.Errorf("pooled cell[%d] = %v", j, x)
			}
		}
		for name, xs := range map[string][]uint64{"hit": s.hit, "total": s.total, "picked": s.picked} {
			for j, x := range xs[:cap(xs)] {
				if x != 0 {
					return fmt.Errorf("pooled %s[%d] = %d", name, j, x)
				}
			}
		}
		for name, xs := range map[string][]int32{"pos": s.pos, "rowOf": s.rowOf} {
			for j, x := range xs[:cap(xs)] {
				if x != 0 {
					return fmt.Errorf("pooled %s[%d] = %d", name, j, x)
				}
			}
		}
		if s.asnOf != nil {
			return fmt.Errorf("pooled Sums keep a dataset's %d-entry ASN column alive", len(s.asnOf))
		}
	}
	return nil
}
