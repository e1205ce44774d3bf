// Package rank turns metric score maps into ordered rankings and computes
// the cross-snapshot deltas the paper's temporal tables (10 and 11) report.
package rank

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"countryrank/internal/asn"
	"countryrank/internal/countries"
)

// ASInfo annotates an AS for presentation.
type ASInfo struct {
	Name    string
	Country countries.Code
}

// InfoFunc resolves presentation metadata for an AS.
type InfoFunc func(asn.ASN) ASInfo

// Entry is one ranked AS.
type Entry struct {
	Rank  int // 1-based
	ASN   asn.ASN
	Value float64
	Info  ASInfo
}

// Ranking is a descending ordering of ASes by metric value. Ties break by
// ascending ASN so rankings are deterministic.
type Ranking struct {
	Metric  string
	Entries []Entry
	byASN   map[asn.ASN]int // ASN → index into Entries
}

// New builds a ranking from metric values. ASes with zero value are kept
// (they may matter for NDCG padding) unless dropZero is set.
func New(metric string, values map[asn.ASN]float64, info InfoFunc, dropZero bool) *Ranking {
	r := &Ranking{Metric: metric}
	r.Entries = make([]Entry, 0, len(values))
	for a, v := range values {
		if dropZero && v == 0 {
			continue
		}
		e := Entry{ASN: a, Value: v}
		if info != nil {
			e.Info = info(a)
		}
		r.Entries = append(r.Entries, e)
	}
	slices.SortFunc(r.Entries, func(a, b Entry) int {
		if a.Value != b.Value {
			if a.Value > b.Value {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ASN, b.ASN)
	})
	r.byASN = make(map[asn.ASN]int, len(r.Entries))
	for i := range r.Entries {
		r.Entries[i].Rank = i + 1
		r.byASN[r.Entries[i].ASN] = i
	}
	return r
}

// Len returns the number of ranked ASes.
func (r *Ranking) Len() int { return len(r.Entries) }

// Top returns the first k entries; none for k ≤ 0.
func (r *Ranking) Top(k int) []Entry {
	return r.Entries[:max(0, min(k, len(r.Entries)))]
}

// TopASNs returns the first k ASNs (the TRA of §3.3).
func (r *Ranking) TopASNs(k int) []asn.ASN {
	top := r.Top(k)
	out := make([]asn.ASN, len(top))
	for i, e := range top {
		out[i] = e.ASN
	}
	return out
}

// RankOf returns a's 1-based rank, or 0 and false when unranked.
func (r *Ranking) RankOf(a asn.ASN) (int, bool) {
	i, ok := r.byASN[a]
	if !ok {
		return 0, false
	}
	return i + 1, true
}

// ValueOf returns a's metric value (0 when unranked).
func (r *Ranking) ValueOf(a asn.ASN) float64 {
	if i, ok := r.byASN[a]; ok {
		return r.Entries[i].Value
	}
	return 0
}

// DeltaEntry describes one AS's movement between two snapshots, as in
// Tables 10 and 11.
type DeltaEntry struct {
	Rank      int // rank in the new snapshot
	ASN       asn.ASN
	Info      ASInfo
	NewValue  float64
	RankDelta int     // old rank − new rank (positive = climbed); 0 if new
	ValueDiff float64 // new − old value
	WasRanked bool
}

// Delta compares the new snapshot's top k against the old ranking.
func Delta(old, new *Ranking, k int) []DeltaEntry {
	var out []DeltaEntry
	for _, e := range new.Top(k) {
		d := DeltaEntry{Rank: e.Rank, ASN: e.ASN, Info: e.Info, NewValue: e.Value}
		if oldRank, ok := old.RankOf(e.ASN); ok {
			d.WasRanked = true
			d.RankDelta = oldRank - e.Rank
			d.ValueDiff = e.Value - old.ValueOf(e.ASN)
		}
		out = append(out, d)
	}
	return out
}

// Render prints the top k as an aligned table.
func (r *Ranking) Render(k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (top %d)\n", r.Metric, k)
	for _, e := range r.Top(k) {
		fmt.Fprintf(&b, "%3d. AS%-7d %-24s %-3s %6.2f%%\n",
			e.Rank, uint32(e.ASN), e.Info.Name, e.Info.Country, 100*e.Value)
	}
	return b.String()
}
