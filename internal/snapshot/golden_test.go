package snapshot

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/par"
	"countryrank/internal/rank"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

// TestGoldenPipelineOutputs pins, for one fixed-seed reduced-scale world,
// the three outputs the data plane feeds: the served snapshot's content
// digest (core.NewPipeline → Build, then once more after a trip through a
// generation file, so the on-disk path is under the same golden), crank's
// rendering of the paper's four case-study countries, and six Stability
// curves. A refactor of the dataset
// layout or a kernel is behaviour-preserving exactly when this file's
// golden stays untouched (ROADMAP 4a).
func TestGoldenPipelineOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full pipeline")
	}
	p := core.NewPipeline(core.Options{Seed: 11, StubScale: 0.15, VPScale: 0.2})

	persist, err := NewPersister(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := persist.Save(Build(p, 1, Config{MaxTopN: DefaultMaxTopN})); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := persist.LoadLatest()
	if err != nil || loaded == nil {
		t.Fatalf("the built snapshot does not load back from its generation file: %v", err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "snapshot digest %s\n", loaded.Digest)
	for _, c := range []countries.Code{"AU", "JP", "RU", "US"} {
		// crank's output loop at its default -metric all -top 10.
		fmt.Fprintf(&b, "== %s (%s)\n", c, countries.Name(c))
		cr := p.Country(c)
		for _, r := range []*rank.Ranking{cr.CCI, cr.AHI, cr.CCN, cr.AHN} {
			b.WriteString(r.Render(10))
		}
	}
	// One curve per (kernel, view kind) a trial can combine: cone and
	// hegemony over international, national and global (full == nil) VPs.
	top := p.World.VPs.Census()[0].Country
	for _, s := range []struct {
		m     core.Metric
		c     countries.Code
		sizes []int
		seed  int64
	}{
		{core.CCI, "AU", []int{1, 2, 4, 8, 16}, 7},
		{core.AHI, "AU", []int{1, 2, 3, 5, 9, 17}, 8},
		{core.AHN, top, []int{1, 2, 3, 4, 6, p.ViewVPCount(core.National, top)}, 9},
		{core.CCN, top, []int{1, 2, 3, 4, 6, p.ViewVPCount(core.National, top)}, 10},
		{core.AHG, "", []int{1, 3, 10, 30, 64, 65}, 11},
		{core.CCG, "", []int{1, 3, 10, 30, 64, 65}, 12},
	} {
		fmt.Fprintf(&b, "stability %s %s seed %d\n", s.m, s.c, s.seed)
		for _, pt := range p.Stability(s.m, s.c, s.sizes, 6, s.seed) {
			fmt.Fprintf(&b, "%3d VPs  ndcg %.17g  tau %.17g  jaccard %.17g  trials %d\n",
				pt.VPs, pt.MeanNDCG, pt.MeanTau, pt.MeanJaccard, pt.Trials)
		}
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

// TestGoldenMRTBytes pins the absolute bytes of the MRT interchange for the
// same seed-11 world: the sha256 of every collector's TABLE_DUMP_V2 RIB and
// of its day-1 BGP4MP update stream. Export is otherwise only ever compared
// between build modes, so a change to the merge or the export group-by is
// byte-preserving exactly when this golden stays untouched. The dumps are
// written the way topogen writes them — all collectors at once off one fresh
// collection, so the workers race to build its grouping — at one, two and
// eight procs.
func TestGoldenMRTBytes(t *testing.T) {
	w := topology.Build(topology.Config{Seed: 11, StubScale: 0.15, VPScale: 0.2})
	const golden = "testdata/golden_mrt.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}

	const ts = 1617235200
	collectors := w.VPs.Collectors()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		col := routing.BuildCollection(w, routing.BuildOptions{})
		lines := make([]string, len(collectors))
		errs := make([]error, len(collectors))
		par.ForEach(len(collectors), func(i int) {
			name := collectors[i].Name
			rib, upd := sha256.New(), sha256.New()
			if errs[i] = routing.ExportMRT(rib, col, name, ts); errs[i] == nil {
				errs[i] = routing.ExportUpdatesMRT(upd, col, name, 1, ts+86400)
			}
			lines[i] = fmt.Sprintf("rib %s %x\nupdates day 1 %s %x\n", name, rib.Sum(nil), name, upd.Sum(nil))
		})
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := strings.Join(lines, ""); got != string(want) {
			t.Errorf("GOMAXPROCS=%d: MRT bytes differ from %s; got:\n%s", procs, golden, got)
		}
	}
}
