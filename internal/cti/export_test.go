package cti

import (
	"fmt"
	"reflect"

	"countryrank/internal/relation"
	"countryrank/internal/sanitize"
)

// Compute is ComputeFrom resolving the transit depths itself.
func Compute(ds *sanitize.Dataset, recs []int32, rels relation.Oracle, trim float64) Scores {
	return ComputeFrom(ds, recs, rels, nil, trim)
}

// ComputeMapRef exposes the map-based reference implementation
// (reference_test.go) to the equivalence property tests.
var ComputeMapRef = computeMapRef

// CheckPooledScratch draws CTI's pooled hegemony.Sums and verifies the pool
// invariant on each: the matrix, its marks, the per-VP totals and columns
// and the per-AS rows are all-zero over their whole capacity, and no
// dataset's ASN column is kept alive. The fields are hegemony's, so they are
// read by name through reflect; a field it cannot find fails the check.
func CheckPooledScratch() error {
	var drawn []any
	defer func() {
		for _, x := range drawn {
			scratchPool.Put(x)
		}
	}()
	for n := 0; n < 8; n++ {
		x := scratchPool.Get()
		drawn = append(drawn, x)
		v := reflect.ValueOf(x).Elem()
		for _, name := range []string{"cell", "hit", "total", "pos", "rowOf"} {
			f := v.FieldByName(name)
			if f.Kind() != reflect.Slice {
				return fmt.Errorf("hegemony.Sums has no slice field %q", name)
			}
			f = f.Slice(0, f.Cap())
			for j := 0; j < f.Len(); j++ {
				if !f.Index(j).IsZero() {
					return fmt.Errorf("pooled %s[%d] is not zero", name, j)
				}
			}
		}
		if f := v.FieldByName("asnOf"); f.Kind() != reflect.Slice || !f.IsNil() {
			return fmt.Errorf("pooled Sums keep a dataset's ASN column alive (or have none to check)")
		}
	}
	return nil
}
