package cti

import (
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
