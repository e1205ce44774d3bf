package experiments

import (
	"fmt"
	"sort"
	"strings"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/concentration"
	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/relation"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

// The experiments below go beyond the paper's published evaluation: the
// concentration analysis its conclusion names as an application, the
// country-dependence matrix generalizing Figure 7, and the backup-path
// failure analysis §7 lists as future work.

// ConcentrationRow is one country's market structure.
type ConcentrationRow struct {
	Country countries.Code
	Market  concentration.Market
}

// Concentration is the per-country transit-market concentration extension.
type Concentration struct {
	Rows []ConcentrationRow // sorted by descending HHI
}

// RunConcentration measures each case-study country's national transit
// market.
func RunConcentration(p *core.Pipeline, cs []countries.Code) Concentration {
	var out Concentration
	for _, c := range cs {
		recs := p.ViewRecords(core.National, c)
		out.Rows = append(out.Rows, ConcentrationRow{
			Country: c,
			Market:  concentration.Compute(p.DS, recs),
		})
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i].Market.HHI > out.Rows[j].Market.HHI })
	return out
}

// Render formats the concentration table.
func (c Concentration) Render() string {
	var b strings.Builder
	b.WriteString("Extension: national transit-market concentration\n")
	fmt.Fprintf(&b, "%-4s %8s %6s %6s  %s\n", "cc", "HHI", "CR1", "CR3", "leader")
	info := func(r ConcentrationRow) string {
		if len(r.Market.Shares) == 0 {
			return "-"
		}
		s := r.Market.Shares[0]
		return fmt.Sprintf("AS%d (%.0f%%)", uint32(s.ASN), 100*s.Share)
	}
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "%-4s %8.0f %5.0f%% %5.0f%%  %s\n",
			r.Country, r.Market.HHI, 100*r.Market.CR1, 100*r.Market.CR3, info(r))
	}
	b.WriteString("(HHI > 2500 is conventionally a highly concentrated market)\n")
	return b.String()
}

// DependenceMatrix generalizes Figure 7 to every (server country, target
// country) pair: the maximum AHI any AS registered in one country holds
// over another country's address space.
type DependenceMatrix struct {
	Targets []countries.Code
	// Max[target][registered] = best AHI.
	Max map[countries.Code]map[countries.Code]float64
}

// RunDependenceMatrix computes the matrix for the given targets (nil =
// every country with prefixes).
func RunDependenceMatrix(p *core.Pipeline, targets []countries.Code) DependenceMatrix {
	if targets == nil {
		targets = p.DS.CountriesWithPrefixes()
	}
	m := DependenceMatrix{Targets: targets, Max: map[countries.Code]map[countries.Code]float64{}}
	info := p.Info()
	scores := ahiByTarget(p, targets)
	for ti, target := range targets {
		hs := scores[ti]
		if hs.Hegemony == nil {
			continue
		}
		row := map[countries.Code]float64{}
		for a, v := range hs.Hegemony {
			reg := info(a).Country
			if reg == "" || reg == target {
				continue
			}
			if v > row[reg] {
				row[reg] = v
			}
		}
		m.Max[target] = row
	}
	return m
}

// TopForeignDependence returns each target's strongest foreign dependence.
func (m DependenceMatrix) TopForeignDependence(target countries.Code) (countries.Code, float64) {
	var best countries.Code
	var bv float64
	var regs []countries.Code
	for r := range m.Max[target] {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	for _, r := range regs {
		if v := m.Max[target][r]; v > bv {
			bv, best = v, r
		}
	}
	return best, bv
}

// Render formats each target's top foreign dependence.
func (m DependenceMatrix) Render() string {
	var b strings.Builder
	b.WriteString("Extension: strongest foreign dependence per country (max AHI)\n")
	for _, t := range m.Targets {
		c, v := m.TopForeignDependence(t)
		if c == "" {
			continue
		}
		fmt.Fprintf(&b, "%-4s depends most on %-4s (AHI %.0f%%)\n", t, c, 100*v)
	}
	return b.String()
}

// InferenceValidation scores the relationship-inference substrate against
// generator ground truth: the validation the paper could only sample
// (§2, "lack of ground truth").
type InferenceValidation struct {
	CliqueHits, CliqueSize, CliqueTruth int
	Val                                 relation.Validation
}

// RunInferenceValidation infers relationships from the pipeline's accepted
// paths and scores them against the world's ground truth.
func RunInferenceValidation(p *core.Pipeline) InferenceValidation {
	seen := map[string]bool{}
	var paths []bgp.Path
	for i := 0; i < p.DS.Len(); i++ {
		_, _, path := p.DS.Record(i)
		k := path.Key()
		if !seen[k] {
			seen[k] = true
			paths = append(paths, path)
		}
	}
	inferredClique := relation.InferClique(paths, 25)
	gt := map[asn.ASN]bool{}
	for _, a := range p.World.Clique {
		gt[a] = true
	}
	out := InferenceValidation{CliqueSize: len(inferredClique), CliqueTruth: len(p.World.Clique)}
	for _, a := range inferredClique {
		if gt[a] {
			out.CliqueHits++
		}
	}
	tbl := relation.Infer(paths, inferredClique)
	out.Val = relation.Validate(tbl, p.World.Graph)
	return out
}

// Render formats the validation summary.
func (v InferenceValidation) Render() string {
	var b strings.Builder
	b.WriteString("Extension: relationship-inference validation vs ground truth\n")
	fmt.Fprintf(&b, "clique: %d/%d inferred members are true clique ASes (truth size %d)\n",
		v.CliqueHits, v.CliqueSize, v.CliqueTruth)
	fmt.Fprintf(&b, "relationships: %d edges compared, %.1f%% correct\n",
		v.Val.Compared, 100*v.Val.Accuracy())
	for truth := topology.RelC2P; truth <= topology.RelP2P; truth++ {
		for inferred := topology.RelC2P; inferred <= topology.RelP2P; inferred++ {
			if n := v.Val.Confusion[truth][inferred]; n > 0 {
				fmt.Fprintf(&b, "  %v mislabeled as %v: %d\n", truth, inferred, n)
			}
		}
	}
	return b.String()
}

// Resilience is the §7 backup-path extension: fail each of a country's top
// AHI links and measure path churn, loss, and newly revealed topology.
type Resilience struct {
	Country countries.Code
	Impacts []routing.FailureImpact
}

// RunResilience fails the links between the country's top-AHI transit AS
// and its customers among the country's top origins.
func RunResilience(p *core.Pipeline, c countries.Code, maxLinks int) Resilience {
	out := Resilience{Country: c}
	cr := p.Country(c)
	g := p.World.Graph
	// Candidate links: edges from the top-5 AHI ASes to their customers.
	seen := map[[2]uint32]bool{}
	for _, e := range cr.AHI.Top(5) {
		for _, cust := range g.Customers(e.ASN) {
			k := [2]uint32{uint32(e.ASN), uint32(cust)}
			if seen[k] {
				continue
			}
			seen[k] = true
			out.Impacts = append(out.Impacts, routing.FailLink(p.Col, e.ASN, cust, p.Opt.Routing))
			if len(out.Impacts) >= maxLinks {
				return out
			}
		}
	}
	return out
}

// Render formats the failure impacts.
func (r Resilience) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: link-failure resilience for %s (backup-path analysis, §7)\n", r.Country)
	fmt.Fprintf(&b, "%-22s %10s %8s %10s\n", "failed link", "changed", "lost", "revealed")
	for _, im := range r.Impacts {
		fmt.Fprintf(&b, "AS%-8d → AS%-8d %9d %8d %10d\n",
			uint32(im.A), uint32(im.B), im.ChangedRecords, im.LostRecords, im.RevealedLinks)
	}
	return b.String()
}
