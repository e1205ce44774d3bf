package experiments

import (
	"fmt"
	"strings"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/rank"
)

// Temporal compares a country's CCI and AHI top-10 across two snapshots:
// the format of Table 10 (Russia 2021→2023) and Table 11 (Taiwan).
type Temporal struct {
	Country    countries.Code
	OldLabel   string
	NewLabel   string
	ConeOld    []rank.Entry // old CCI top 10
	ConeDelta  []rank.DeltaEntry
	HegOld     []rank.Entry // old AHI top 10
	HegDelta   []rank.DeltaEntry
	ConeOldFul *rank.Ranking
	HegOldFull *rank.Ranking
}

// RunTemporal computes the two-snapshot comparison for country c.
func RunTemporal(pOld, pNew *core.Pipeline, c countries.Code) Temporal {
	oldR := pOld.Country(c)
	newR := pNew.Country(c)
	return Temporal{
		Country:    c,
		OldLabel:   string(pOld.Opt.Scenario),
		NewLabel:   string(pNew.Opt.Scenario),
		ConeOld:    oldR.CCI.Top(10),
		ConeDelta:  rank.Delta(oldR.CCI, newR.CCI, 10),
		HegOld:     oldR.AHI.Top(10),
		HegDelta:   rank.Delta(oldR.AHI, newR.AHI, 10),
		ConeOldFul: oldR.CCI,
		HegOldFull: oldR.AHI,
	}
}

// ForeignShareTop10 returns how many of the new snapshot's top-10 CCI ASes
// are registered outside the country: the paper's headline for Russia
// ("dependence on foreign transit has not decreased").
func (t Temporal) ForeignShareTop10() int {
	n := 0
	for _, d := range t.ConeDelta {
		if d.Info.Country != t.Country {
			n++
		}
	}
	return n
}

// Render formats the side-by-side comparison in Table 10/11 style.
func (t Temporal) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Temporal %s: %s → %s\n", t.Country, t.OldLabel, t.NewLabel)
	b.WriteString("customer cone (CCI):\n")
	renderDeltaSide(&b, t.ConeOld, t.ConeDelta)
	b.WriteString("hegemony (AHI):\n")
	renderDeltaSide(&b, t.HegOld, t.HegDelta)
	fmt.Fprintf(&b, "foreign ASes in new CCI top-10: %d\n", t.ForeignShareTop10())
	return b.String()
}

func renderDeltaSide(b *strings.Builder, old []rank.Entry, delta []rank.DeltaEntry) {
	fmt.Fprintf(b, "  %-3s %-28s %8s | %-28s %6s %8s\n", "#", "old", "value", "new", "Δrank", "Δvalue")
	for i := 0; i < len(old) || i < len(delta); i++ {
		left := ""
		if i < len(old) {
			e := old[i]
			left = fmt.Sprintf("%-28s %7.1f%%", label(e), 100*e.Value)
		} else {
			left = strings.Repeat(" ", 37)
		}
		right := ""
		if i < len(delta) {
			d := delta[i]
			move := "new"
			if d.WasRanked {
				move = fmt.Sprintf("%+d", d.RankDelta)
			}
			right = fmt.Sprintf("%-28s %6s %+7.1f%%",
				fmt.Sprintf("%d %s %s", uint32(d.ASN), d.Info.Name, d.Info.Country),
				move, 100*d.ValueDiff)
		}
		fmt.Fprintf(b, "  %-3d %s | %s\n", i+1, left, right)
	}
}

func label(e rank.Entry) string {
	return fmt.Sprintf("%d %s %s", uint32(e.ASN), e.Info.Name, e.Info.Country)
}
