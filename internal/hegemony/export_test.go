package hegemony

import "fmt"

// ComputeMapRef exposes the map-based reference implementation
// (reference_test.go) to the equivalence property tests.
var ComputeMapRef = computeMapRef

// CheckPooledScratch draws scratch buffers from the pool and verifies the
// pool invariant over each one's whole capacity: the per-VP counters, the
// per-AS weights, markers and counts are all-zero between calls, and the
// pooled per-VP runs name no dataset.
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
		if sc.pv.asnOf != nil {
			return fmt.Errorf("pooled per-VP runs keep a dataset's %d-entry ASN column alive", len(sc.pv.asnOf))
		}
	}
	return nil
}
