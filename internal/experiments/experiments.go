// Package experiments regenerates every table and figure of the paper's
// evaluation from a pipeline run. Each experiment returns a typed result
// with a Render method producing the paper-style presentation; cmd/
// experiments prints them all and EXPERIMENTS.md records the comparison
// against the published values.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/geoloc"
	"countryrank/internal/sanitize"
)

// Table1 is the path-sanitization accounting (§3.1).
type Table1 struct {
	Stats sanitize.Stats
}

// RunTable1 extracts the Table 1 accounting from the pipeline.
func RunTable1(p *core.Pipeline) Table1 { return Table1{Stats: p.DS.Stats} }

// Render formats the table.
func (t Table1) Render() string {
	return "Table 1: filtering paths\n" + t.Stats.Render()
}

// Table2 is the static view-definition matrix of the paper.
type Table2 struct{}

// RunTable2 returns the (static) Table 2.
func RunTable2() Table2 { return Table2{} }

// Render formats the view matrix: which ASes/prefixes/VPs each metric uses.
func (Table2) Render() string {
	return `Table 2: AS path input data per metric
                      ASes      prefixes     VPs
type        metric    in  out   in  out      in  out
national    AHN,CCN             X            X
internat.   AHI,CCI             X                X
IHR country AHC       X                      X   X
global      AHG                 X   X        X   X
global      CCG                 X   X        X   X
`
}

// Table4Row is one country's census (Tables 3 and 4 share this data).
type Table4Row struct {
	Country   countries.Code
	VPs       int
	VPASNs    int
	ASNs      int // ASes registered in the country
	Prefixes  int
	Addresses uint64
}

// Table4 is the per-country VP/AS/prefix/address census.
type Table4 struct {
	Rows []Table4Row // sorted by VP count descending
}

// RunTable4 computes the census over the sanitized data set.
func RunTable4(p *core.Pipeline) Table4 {
	byC := map[countries.Code]*Table4Row{}
	get := func(c countries.Code) *Table4Row {
		r := byC[c]
		if r == nil {
			r = &Table4Row{Country: c}
			byC[c] = r
		}
		return r
	}
	for _, cc := range p.VPs.Census() {
		r := get(cc.Country)
		r.VPs = cc.VPs
		r.VPASNs = cc.VPASNs
	}
	for _, node := range p.ASes.All() {
		if node.Registered != "" {
			get(node.Registered).ASNs++
		}
	}
	for pfxIdx, c := range p.DS.PrefixCountry {
		if c == "" {
			continue
		}
		r := get(c)
		r.Prefixes++
		r.Addresses += p.DS.Weight[pfxIdx]
	}
	t := Table4{}
	for _, r := range byC {
		t.Rows = append(t.Rows, *r)
	}
	sort.Slice(t.Rows, func(i, j int) bool {
		if t.Rows[i].VPs != t.Rows[j].VPs {
			return t.Rows[i].VPs > t.Rows[j].VPs
		}
		return t.Rows[i].Country < t.Rows[j].Country
	})
	return t
}

// Render formats countries with >7 in-country VPs, like the paper.
func (t Table4) Render() string {
	var b strings.Builder
	b.WriteString("Table 4: countries by in-country VPs (VPs > 7)\n")
	fmt.Fprintf(&b, "%-4s %6s %8s %8s %10s %12s\n", "cc", "VPs", "VP-ASNs", "ASNs", "prefixes", "addresses")
	for _, r := range t.Rows {
		if r.VPs <= 7 {
			continue
		}
		fmt.Fprintf(&b, "%-4s %6d %8d %8d %10d %11.1fm\n",
			r.Country, r.VPs, r.VPASNs, r.ASNs, r.Prefixes, float64(r.Addresses)/1e6)
	}
	return b.String()
}

// Table13_14 is the per-country geolocation filter accounting.
type Table13_14 struct {
	// PctPrefixes and PctAddresses are keyed by country.
	PctPrefixes  map[countries.Code]float64
	PctAddresses map[countries.Code]float64
}

// RunTable13_14 extracts filter percentages from the geolocation table.
func RunTable13_14(p *core.Pipeline) Table13_14 {
	t := Table13_14{
		PctPrefixes:  map[countries.Code]float64{},
		PctAddresses: map[countries.Code]float64{},
	}
	for _, s := range p.Geo.CountryStats() {
		t.PctPrefixes[s.Country] = s.PctPrefixesFiltered()
		t.PctAddresses[s.Country] = s.PctAddressesFiltered()
	}
	return t
}

// Render shows case-study countries plus the most-filtered tail.
func (t Table13_14) Render() string {
	var b strings.Builder
	b.WriteString("Tables 13/14: % of prefixes / addresses filtered by the 50% threshold\n")
	caseStudies := []countries.Code{"RU", "TW", "UA", "US", "AU", "JP"}
	fmt.Fprintf(&b, "%-4s %10s %10s\n", "cc", "%prefixes", "%addrs")
	for _, c := range caseStudies {
		fmt.Fprintf(&b, "%-4s %9.1f%% %9.1f%%\n", c, t.PctPrefixes[c], t.PctAddresses[c])
	}
	b.WriteString("most filtered:\n")
	type kv struct {
		c countries.Code
		v float64
	}
	var worst []kv
	for c, v := range t.PctPrefixes {
		worst = append(worst, kv{c, v})
	}
	sort.Slice(worst, func(i, j int) bool {
		if worst[i].v != worst[j].v {
			return worst[i].v > worst[j].v
		}
		return worst[i].c < worst[j].c
	})
	for i := 0; i < 4 && i < len(worst); i++ {
		fmt.Fprintf(&b, "%-4s %9.1f%% %9.1f%%\n", worst[i].c, worst[i].v, t.PctAddresses[worst[i].c])
	}
	return b.String()
}

// Figure8 sweeps the geolocation majority threshold: for each threshold,
// the share of prefixes passing per country (§Appendix B).
type Figure8 struct {
	Thresholds []float64
	// PassShare[i] is, at Thresholds[i], the fraction of countries whose
	// prefixes pass at ≥99% / ≥95% / lower bands.
	CountriesAt99 []int
	CountriesAt95 []int
	Countries     int
}

// RunFigure8 computes the threshold sweep.
func RunFigure8(p *core.Pipeline) Figure8 {
	f := Figure8{Thresholds: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}}
	announced := p.Col.AnnouncedPrefixes()
	for _, th := range f.Thresholds {
		tbl := geoloc.GeolocatePrefixes(p.Inputs.Geo, announced, th)
		pass := map[countries.Code][2]int{} // [passed, total]
		for _, g := range tbl.ByPrefix {
			c := g.Country
			if c == "" {
				c = g.Plurality
			}
			if c == "" {
				continue
			}
			v := pass[c]
			v[1]++
			if g.Reason == geoloc.NotFiltered {
				v[0]++
			}
			pass[c] = v
		}
		n99, n95 := 0, 0
		for _, v := range pass {
			share := float64(v[0]) / float64(v[1])
			if share >= 0.99 {
				n99++
			}
			if share >= 0.95 {
				n95++
			}
		}
		f.CountriesAt99 = append(f.CountriesAt99, n99)
		f.CountriesAt95 = append(f.CountriesAt95, n95)
		f.Countries = len(pass)
	}
	return f
}

// Render formats the sweep.
func (f Figure8) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8: countries by share of prefixes passing the geolocation threshold\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %10s\n", "threshold", "≥99% pass", "≥95% pass", "countries")
	for i, th := range f.Thresholds {
		fmt.Fprintf(&b, "%-10.1f %12d %12d %10d\n", th, f.CountriesAt99[i], f.CountriesAt95[i], f.Countries)
	}
	return b.String()
}

// Figure9 is the prefix-length histogram of filtered prefixes.
type Figure9 struct {
	// CoveredByLen and NoConsensusByLen count filtered prefixes by length.
	CoveredByLen     map[int]int
	NoConsensusByLen map[int]int
}

// RunFigure9 extracts the histogram.
func RunFigure9(p *core.Pipeline) Figure9 {
	h := p.Geo.FilteredLengthHistogram()
	return Figure9{
		CoveredByLen:     h[geoloc.CoveredByMoreSpecifics],
		NoConsensusByLen: h[geoloc.NoConsensus],
	}
}

// Render formats the histogram and the covered-vs-consensus split the paper
// reports (85% covered by more specifics).
func (f Figure9) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9: filtered prefixes by length\n")
	total, covered := 0, 0
	lens := map[int]bool{}
	for l, n := range f.CoveredByLen {
		covered += n
		total += n
		lens[l] = true
	}
	for l, n := range f.NoConsensusByLen {
		total += n
		lens[l] = true
	}
	var ls []int
	for l := range lens {
		ls = append(ls, l)
	}
	sort.Ints(ls)
	fmt.Fprintf(&b, "%-6s %10s %14s\n", "len", "covered", "no-consensus")
	for _, l := range ls {
		fmt.Fprintf(&b, "/%-5d %10d %14d\n", l, f.CoveredByLen[l], f.NoConsensusByLen[l])
	}
	if total > 0 {
		fmt.Fprintf(&b, "covered-by-more-specifics share: %.0f%% (paper: 85%%)\n",
			100*float64(covered)/float64(total))
	}
	return b.String()
}

// Figure10 is the VP concentration across ASes per country.
type Figure10 struct {
	// Dist[country][k] = number of VPs living in ASes that host k VPs.
	Dist map[countries.Code]map[int]int
}

// RunFigure10 computes the concentration for countries with >7 VPs.
func RunFigure10(p *core.Pipeline) Figure10 {
	f := Figure10{Dist: map[countries.Code]map[int]int{}}
	for _, cc := range p.VPs.Census() {
		if cc.VPs <= 7 {
			continue
		}
		f.Dist[cc.Country] = p.VPs.ASConcentration(cc.Country)
	}
	return f
}

// Render formats per-country VP concentration.
func (f Figure10) Render() string {
	var b strings.Builder
	b.WriteString("Figure 10: VP distribution across ASes, by country\n")
	var cs []countries.Code
	for c := range f.Dist {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	singles, total := 0, 0
	for _, c := range cs {
		var ks []int
		for k := range f.Dist[c] {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		fmt.Fprintf(&b, "%-4s", c)
		for _, k := range ks {
			fmt.Fprintf(&b, "  %d-VP-AS:%d", k, f.Dist[c][k])
			total += f.Dist[c][k]
			if k == 1 {
				singles += f.Dist[c][k]
			}
		}
		b.WriteByte('\n')
	}
	if total > 0 {
		fmt.Fprintf(&b, "VPs alone in their AS: %.0f%% (paper: 81%%)\n", 100*float64(singles)/float64(total))
	}
	return b.String()
}
