package ihr_test

import (
	"reflect"
	"testing"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/ihr"
)

// TestParallelMatchesMapReference: the fan-out per-origin computation with
// dense-id merging must produce byte-identical Scores to the retained
// sequential map-based reference — both merge origins in ascending order,
// so even float accumulation order is pinned.
func TestParallelMatchesMapReference(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		p := core.NewPipeline(core.Options{Seed: seed, StubScale: 0.15, VPScale: 0.2})
		for _, c := range []countries.Code{"AU", "JP", "US", "ZZ"} {
			for _, weighting := range []ihr.Weighting{ihr.ByASCount, ihr.ByUsers} {
				got := ihr.ComputeWeighted(p.DS, p.ASes, c, p.Opt.Trim, weighting)
				want := ihr.ComputeMapRef(p.DS, p.ASes, c, p.Opt.Trim, weighting)
				if got.Origins != want.Origins {
					t.Fatalf("seed %d %s w%d: Origins %d != %d",
						seed, c, weighting, got.Origins, want.Origins)
				}
				if !reflect.DeepEqual(got.AHC, want.AHC) {
					t.Fatalf("seed %d %s w%d: parallel AHC diverges from reference (%d vs %d ASes)",
						seed, c, weighting, len(got.AHC), len(want.AHC))
				}
			}
		}
	}
}
