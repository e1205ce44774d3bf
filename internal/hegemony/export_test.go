package hegemony

import "fmt"

// ComputeMapRef exposes the map-based reference implementation
// (reference_test.go) to the equivalence property tests.
var ComputeMapRef = computeMapRef

// RowsCrossover, Pairs and WalksRows let the equivalence tests place
// selections on either side of the gatherer choice and see which way it went.
const RowsCrossover = rowsCrossover

// Pairs returns how many (AS, share) pairs the VPs at the given positions
// hold and how many the whole view does.
func (pv *PerVP) Pairs(sel []int32) (ofSel, ofView int) {
	for _, p := range sel {
		ofSel += int(pv.off[p+1] - pv.off[p])
	}
	return ofSel, len(pv.ids)
}

// WalksRows reports whether a selection holding pairs of the view's pairs is
// gathered from the presorted rows.
func (pv *PerVP) WalksRows(pairs int) bool { return pv.walksRows(pairs) }

// CheckPooledScratch draws scratch buffers from the pool and verifies the
// pool invariant over each one's whole capacity: the per-VP counters, the
// per-AS weights, markers and counts, the per-VP selection marks and the full
// view's matrix, marks and totals are all-zero between calls, and the pooled
// per-VP runs name no dataset.
func CheckPooledScratch() error {
	var drawn []*scratch
	defer func() {
		for _, sc := range drawn {
			scratchPool.Put(sc)
		}
	}()
	for n := 0; n < 8; n++ {
		sc := scratchPool.Get().(*scratch)
		drawn = append(drawn, sc)
		for v, c := range sc.byVP.Cnt[:cap(sc.byVP.Cnt)] {
			if c != 0 {
				return fmt.Errorf("pooled byVP.Cnt[%d] = %d", v, c)
			}
		}
		for id, w := range sc.asW[:cap(sc.asW)] {
			if w != 0 {
				return fmt.Errorf("pooled asW[%d] = %d", id, w)
			}
		}
		for id, s := range sc.seen[:cap(sc.seen)] {
			if s {
				return fmt.Errorf("pooled seen[%d] is set", id)
			}
		}
		for id, c := range sc.counts[:cap(sc.counts)] {
			if c != 0 {
				return fmt.Errorf("pooled counts[%d] = %d", id, c)
			}
		}
		for p, m := range sc.picked[:cap(sc.picked)] {
			if m != 0 {
				return fmt.Errorf("pooled picked[%d] = %d", p, m)
			}
		}
		for name, s := range map[string][]uint64{"cellW": sc.cellW, "hit": sc.hit, "vpTotal": sc.vpTotal} {
			for j, x := range s[:cap(s)] {
				if x != 0 {
					return fmt.Errorf("pooled %s[%d] = %d", name, j, x)
				}
			}
		}
		for id, m := range sc.mean[:cap(sc.mean)] {
			if m != 0 {
				return fmt.Errorf("pooled mean[%d] = %v", id, m)
			}
		}
		if sc.pv.rowOff != nil {
			return fmt.Errorf("pooled per-VP runs carry %d rows; only Accumulate builds them", len(sc.pv.rowID))
		}
		if sc.pv.asnOf != nil {
			return fmt.Errorf("pooled per-VP runs keep a dataset's %d-entry ASN column alive", len(sc.pv.asnOf))
		}
	}
	return nil
}
