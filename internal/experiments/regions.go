package experiments

import (
	"fmt"
	"sort"
	"strings"

	"countryrank/internal/asn"
	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/hegemony"
	"countryrank/internal/par"
)

// ahiByTarget computes each target country's international-view hegemony
// across a bounded worker pool. Entry i is the zero Scores (nil map) when
// target i has no international records. Callers merge the results
// sequentially in target order, keeping output deterministic.
func ahiByTarget(p *core.Pipeline, targets []countries.Code) []hegemony.Scores {
	out := make([]hegemony.Scores, len(targets))
	par.ForEach(len(targets), func(i int) {
		recs := p.ViewRecords(core.International, targets[i])
		if len(recs) == 0 {
			return
		}
		out[i] = hegemony.Compute(p.DS, recs, p.Opt.Trim)
	})
	return out
}

// AHIThreshold is Table 12's bar for "serves a country".
const AHIThreshold = 0.1

// Table12Row aggregates, for ASes registered in one country, how many
// target countries per continent they serve with AHI above the threshold.
type Table12Row struct {
	Registered countries.Code
	// Served[continent] = number of countries with some AS from Registered
	// above the AHI threshold.
	Served map[countries.Continent]int
	Total  int
	// TopAS is the AS from Registered serving the most countries.
	TopAS        asn.ASN
	TopASName    string
	TopASServed  int
	TopASBestAHI float64
}

// Table12 is the continental-dominance analysis (§6.3).
type Table12 struct {
	Rows []Table12Row
	// CountriesPerContinent sizes each column.
	CountriesPerContinent map[countries.Continent]int
	// USShare is the fraction of countries served by a U.S. AS.
	USShare float64
}

// RunTable12 computes AHI for every country with prefixes and aggregates by
// the serving AS's registration country.
func RunTable12(p *core.Pipeline) Table12 {
	type serveKey struct {
		reg    countries.Code
		target countries.Code
	}
	served := map[serveKey]bool{}
	perAS := map[asn.ASN]map[countries.Code]float64{} // AS → target → AHI
	info := p.Info()

	targets := p.DS.CountriesWithPrefixes()
	scores := ahiByTarget(p, targets)
	for ti, target := range targets {
		hs := scores[ti]
		if hs.Hegemony == nil {
			continue
		}
		for a, v := range hs.Hegemony {
			if v <= AHIThreshold {
				continue
			}
			reg := info(a).Country
			if reg == "" {
				continue
			}
			served[serveKey{reg, target}] = true
			m := perAS[a]
			if m == nil {
				m = map[countries.Code]float64{}
				perAS[a] = m
			}
			m[target] = v
		}
	}

	t := Table12{CountriesPerContinent: map[countries.Continent]int{}}
	for _, c := range targets {
		if ct, ok := countries.ContinentOf(c); ok {
			t.CountriesPerContinent[ct]++
		}
	}

	byReg := map[countries.Code]*Table12Row{}
	for k := range served {
		r := byReg[k.reg]
		if r == nil {
			r = &Table12Row{Registered: k.reg, Served: map[countries.Continent]int{}}
			byReg[k.reg] = r
		}
		if ct, ok := countries.ContinentOf(k.target); ok {
			r.Served[ct]++
		}
		r.Total++
	}
	// Top AS per registration country.
	for a, targets := range perAS {
		reg := info(a).Country
		r := byReg[reg]
		if r == nil {
			continue
		}
		best := 0.0
		for _, v := range targets {
			if v > best {
				best = v
			}
		}
		if len(targets) > r.TopASServed ||
			(len(targets) == r.TopASServed && a < r.TopAS) {
			r.TopAS = a
			r.TopASName = info(a).Name
			r.TopASServed = len(targets)
			r.TopASBestAHI = best
		}
	}
	for _, r := range byReg {
		t.Rows = append(t.Rows, *r)
	}
	sort.Slice(t.Rows, func(i, j int) bool {
		if t.Rows[i].Total != t.Rows[j].Total {
			return t.Rows[i].Total > t.Rows[j].Total
		}
		return t.Rows[i].Registered < t.Rows[j].Registered
	})
	if us := byReg["US"]; us != nil && len(targets) > 0 {
		t.USShare = float64(us.Total) / float64(len(targets))
	}
	return t
}

// Render formats Table 12.
func (t Table12) Render() string {
	var b strings.Builder
	b.WriteString("Table 12: countries per continent served by each country's ASes (AHI > 0.1)\n")
	cts := countries.AllContinents()
	fmt.Fprintf(&b, "%-4s", "cc")
	for _, ct := range cts {
		fmt.Fprintf(&b, " %8.8s(%d)", string(ct), t.CountriesPerContinent[ct])
	}
	fmt.Fprintf(&b, " %7s  %s\n", "total", "top AS")
	for _, r := range t.Rows {
		if r.Total < 2 {
			continue
		}
		fmt.Fprintf(&b, "%-4s", r.Registered)
		for _, ct := range cts {
			fmt.Fprintf(&b, " %11d", r.Served[ct])
		}
		fmt.Fprintf(&b, " %7d  AS%d %s serves %d (best AHI %.0f%%)\n",
			r.Total, uint32(r.TopAS), r.TopASName, r.TopASServed, 100*r.TopASBestAHI)
	}
	fmt.Fprintf(&b, "share of countries served by a U.S. AS: %.0f%% (paper: 76%%)\n", 100*t.USShare)
	return b.String()
}

// Figure7 reports Russian ASes' AHI over former Soviet bloc countries.
type Figure7 struct {
	// MaxRussianAHI[country] is the highest AHI any RU-registered AS holds
	// toward the country.
	MaxRussianAHI map[countries.Code]float64
}

// RunFigure7 computes Russian hegemony over the ex-USSR countries plus
// Russia itself.
func RunFigure7(p *core.Pipeline) Figure7 {
	f := Figure7{MaxRussianAHI: map[countries.Code]float64{}}
	info := p.Info()
	targets := append(countries.FormerSovietBloc(), "RU")
	scores := ahiByTarget(p, targets)
	for ti, target := range targets {
		hs := scores[ti]
		if hs.Hegemony == nil {
			continue
		}
		best := 0.0
		for a, v := range hs.Hegemony {
			if info(a).Country == "RU" && v > best {
				best = v
			}
		}
		f.MaxRussianAHI[target] = best
	}
	return f
}

// Render formats Figure 7: which ex-Soviet countries still depend on
// Russian networks (AHI > 0.2 in the paper's reading).
func (f Figure7) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: Russia's AHI over former Soviet bloc countries\n")
	var cs []countries.Code
	for c := range f.MaxRussianAHI {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool {
		if vi, vj := f.MaxRussianAHI[cs[i]], f.MaxRussianAHI[cs[j]]; vi != vj {
			return vi > vj
		}
		return cs[i] < cs[j]
	})
	for _, c := range cs {
		dep := ""
		if f.MaxRussianAHI[c] > 0.2 {
			dep = "  << depends on Russian infrastructure"
		}
		fmt.Fprintf(&b, "%-4s %6.1f%%%s\n", c, 100*f.MaxRussianAHI[c], dep)
	}
	return b.String()
}
