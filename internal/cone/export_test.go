package cone

import "fmt"

// ComputeMapRef exposes the retained map-based reference implementation to
// the equivalence property tests.
var ComputeMapRef = computeMapRef

// CheckPooledScratch draws scratch buffers from the pool and verifies the
// pool invariant over each one's whole capacity: the per-prefix counters
// and the per-AS stamp and address slices are all-zero between calls.
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
		for p, c := range sc.byPrefix.Cnt[:cap(sc.byPrefix.Cnt)] {
			if c != 0 {
				return fmt.Errorf("pooled byPrefix.Cnt[%d] = %d", p, c)
			}
		}
		for id, m := range sc.stamp[:cap(sc.stamp)] {
			if m != 0 {
				return fmt.Errorf("pooled stamp[%d] = %d", id, m)
			}
		}
		for id, a := range sc.addr[:cap(sc.addr)] {
			if a != 0 {
				return fmt.Errorf("pooled addr[%d] = %d", id, a)
			}
		}
	}
	return nil
}
