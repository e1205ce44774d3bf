package snapshot

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/rank"
)

// TestGoldenPipelineOutputs pins, for one fixed-seed reduced-scale world,
// the three outputs the data plane feeds: the served snapshot's content
// digest (core.NewPipeline → Build), crank's rendering of the paper's four
// case-study countries, and one Stability curve. A refactor of the dataset
// layout or a kernel is behaviour-preserving exactly when this file's
// golden stays untouched (ROADMAP 4a).
func TestGoldenPipelineOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full pipeline")
	}
	p := core.NewPipeline(core.Options{Seed: 11, StubScale: 0.15, VPScale: 0.2})

	var b strings.Builder
	fmt.Fprintf(&b, "snapshot digest %s\n", Build(p, 1, Config{MaxTopN: DefaultMaxTopN}).Digest)
	for _, c := range []countries.Code{"AU", "JP", "RU", "US"} {
		// crank's output loop at its default -metric all -top 10.
		fmt.Fprintf(&b, "== %s (%s)\n", c, countries.Name(c))
		cr := p.Country(c)
		for _, r := range []*rank.Ranking{cr.CCI, cr.AHI, cr.CCN, cr.AHN} {
			b.WriteString(r.Render(10))
		}
	}
	b.WriteString("stability CCI AU seed 7\n")
	for _, pt := range p.Stability(core.CCI, "AU", []int{1, 2, 4, 8, 16}, 6, 7) {
		fmt.Fprintf(&b, "%3d VPs  ndcg %.17g  tau %.17g  jaccard %.17g  trials %d\n",
			pt.VPs, pt.MeanNDCG, pt.MeanTau, pt.MeanJaccard, pt.Trials)
	}

	const golden = "testdata/golden_pipeline.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("pipeline outputs differ from %s; got:\n%s", golden, got)
	}
}
