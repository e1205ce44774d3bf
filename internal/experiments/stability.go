package experiments

import (
	"fmt"
	"sort"
	"strings"

	"countryrank/internal/core"
	"countryrank/internal/countries"
)

// StabilityCurve is one (metric, country) downsampling series.
type StabilityCurve struct {
	Metric  core.Metric
	Country countries.Code
	Points  []core.StabilityPoint
}

// MinVPsFor returns the smallest sample size whose mean NDCG reaches the
// threshold, or 0 when never reached — the paper's "k VPs for NDCG ≥ 0.9".
func (c StabilityCurve) MinVPsFor(threshold float64) int {
	for _, pt := range c.Points {
		if pt.MeanNDCG >= threshold {
			return pt.VPs
		}
	}
	return 0
}

// Figure4 is the national-view stability analysis: AHN and CCN NDCG curves
// for the five countries with the most in-country VPs.
type Figure4 struct {
	Countries []countries.Code
	AHN, CCN  []StabilityCurve
}

// RunFigure4 downsamples in-country VPs for the top-VP countries.
func RunFigure4(p *core.Pipeline, trials int, seed int64) Figure4 {
	f := Figure4{}
	census := p.VPs.Census()
	for i := 0; i < len(census) && i < 5; i++ {
		f.Countries = append(f.Countries, census[i].Country)
	}
	f.AHN, f.CCN = curves(p, core.National, core.AHN, core.CCN, f.Countries, trials, seed)
	return f
}

// curves draws, per country, the hegemony curve from seed and the cone
// curve from seed+1 over the view's VPs: the two panels of one figure.
func curves(p *core.Pipeline, kind core.ViewKind, heg, cone core.Metric, cs []countries.Code, trials int, seed int64) (hs, ccs []StabilityCurve) {
	for _, c := range cs {
		sizes := sampleSizes(p.ViewVPCount(kind, c))
		hs = append(hs, StabilityCurve{heg, c, p.Stability(heg, c, sizes, trials, seed)})
		ccs = append(ccs, StabilityCurve{cone, c, p.Stability(cone, c, sizes, trials, seed+1)})
	}
	return hs, ccs
}

// Render formats the curves plus the headline thresholds.
func (f Figure4) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: national-view stability (NDCG vs in-country VPs)\n")
	renderCurves(&b, "AHN", f.AHN)
	renderCurves(&b, "CCN", f.CCN)
	fmt.Fprintf(&b, "VPs for NDCG ≥ 0.8: AHN %d, CCN %d (paper: 9 and 6)\n",
		maxMinVPs(f.AHN, 0.8), maxMinVPs(f.CCN, 0.8))
	fmt.Fprintf(&b, "VPs for NDCG ≥ 0.9: AHN %d, CCN %d (paper: 25 and 19)\n",
		maxMinVPs(f.AHN, 0.9), maxMinVPs(f.CCN, 0.9))
	return b.String()
}

// Figure5 is the international-view stability analysis.
type Figure5 struct {
	Countries []countries.Code
	AHI, CCI  []StabilityCurve
}

// RunFigure5 downsamples out-of-country VPs for the case-study countries.
func RunFigure5(p *core.Pipeline, trials int, seed int64) Figure5 {
	f := Figure5{Countries: []countries.Code{"AU", "JP", "RU", "US", "TW"}}
	f.AHI, f.CCI = curves(p, core.International, core.AHI, core.CCI, f.Countries, trials, seed)
	return f
}

// Render formats the curves and the minimum-VP headline.
func (f Figure5) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: international-view stability (NDCG vs out-of-country VPs)\n")
	renderCurves(&b, "AHI", f.AHI)
	renderCurves(&b, "CCI", f.CCI)
	fmt.Fprintf(&b, "VPs for NDCG ≥ 0.9: AHI %d, CCI %d (paper: stable by 91–411 VPs)\n",
		maxMinVPs(f.AHI, 0.9), maxMinVPs(f.CCI, 0.9))
	return b.String()
}

// sampleSizes builds a roughly geometric grid of VP sample sizes up to max.
func sampleSizes(max int) []int {
	if max <= 0 {
		return nil
	}
	base := []int{1, 2, 3, 4, 6, 9, 13, 19, 25, 40, 60, 91, 140, 200, 300, 411, 550, 700}
	var out []int
	for _, n := range base {
		if n < max {
			out = append(out, n)
		}
	}
	out = append(out, max)
	sort.Ints(out)
	return out
}

func renderCurves(b *strings.Builder, name string, curves []StabilityCurve) {
	for _, c := range curves {
		fmt.Fprintf(b, "  %s %-3s:", name, c.Country)
		for _, pt := range c.Points {
			fmt.Fprintf(b, " %d:%.2f", pt.VPs, pt.MeanNDCG)
		}
		b.WriteByte('\n')
	}
}

// maxMinVPs returns the largest per-country minimum VP count to reach the
// threshold (the conservative "enough VPs anywhere" bound).
func maxMinVPs(curves []StabilityCurve, threshold float64) int {
	out := 0
	for _, c := range curves {
		if v := c.MinVPsFor(threshold); v > out {
			out = v
		}
	}
	return out
}
