package snapshot

// The drift diff engine: a deterministic comparison of two snapshots'
// rank vectors (the content every served page is rendered from — the diff
// never parses served JSON). Every rollover the supervisor computes
// a Drift against the outgoing snapshot; cmd/rankdiff computes the same
// Drift offline from two persisted generations. Both paths run this code,
// so the live drift metrics and the offline report always agree — same
// churn scores, same top movers, bit-identical floats (the accumulation
// order is fixed: countries in sorted order, union ASNs in ascending
// order).
//
// Churn score (per metric): a weighted rank-displacement sum. For every AS
// in the union of the old and new top-K vectors,
//
//	d = |rank_old - rank_new|,  weight = 1 / min(rank_old, rank_new)
//
// where an AS absent from one side takes the virtual rank len(vector)+1
// (falling off the bottom of a top-10 costs less than falling from #1).
// The per-country sums add up into the metric's score, so a single swap at
// the top of one country (weight 1, d 1 each → 2.0) outweighs shuffling at
// the tail of many. A score of 0 means the ranked order is unchanged.

import (
	"slices"
	"strconv"
	"strings"

	"countryrank/internal/asn"
	"countryrank/internal/obs"
)

var (
	mDriftChurn = obs.NewFloatGauge("countryrank_drift_churn_score",
		"max per-metric churn score of the last rollover (weighted rank displacement)")
	mDriftMaxDelta = obs.NewGauge("countryrank_drift_max_rank_delta",
		"largest rank move of any AS ranked on both sides of the last rollover")
	mDriftRollovers = obs.NewCounter("countryrank_drift_rollovers_total",
		"rollovers for which a drift was computed (both sides carried rank vectors)")
)

// maxTopMovers caps the per-metric mover list a Drift retains.
const maxTopMovers = 20

// Mover is one AS whose rank changed between epochs: moved within the
// ranking, entered it, or exited it.
type Mover struct {
	Metric  string  `json:"metric"`
	Country string  `json:"country,omitempty"` // empty for global tops
	ASN     asn.ASN `json:"asn"`
	Name    string  `json:"name,omitempty"`
	OldRank int     `json:"old_rank"` // 0 = not ranked before (entered)
	NewRank int     `json:"new_rank"` // 0 = not ranked after (exited)
	// Score is the displacement that ranked this mover: |Δrank|, with the
	// virtual bottom rank standing in for the missing side on entry/exit.
	Score int `json:"score"`
}

// MetricDrift aggregates one metric's movement across every country (or
// the single global ranking, for ccg/ahg).
type MetricDrift struct {
	Metric string  `json:"metric"`
	Churn  float64 `json:"churn_score"`
	// CountriesMoved counts countries with any movement (always 0 for the
	// global top metrics).
	CountriesMoved int `json:"countries_moved"`
	Moved          int `json:"asns_moved"` // ranked on both sides, rank changed
	Entered        int `json:"asns_entered"`
	Exited         int `json:"asns_exited"`
	// MaxRankDelta is the largest |Δrank| among ASes ranked on both sides.
	MaxRankDelta int `json:"max_rank_delta"`
	// Hist buckets Moved by |Δrank|: 1, 2–3, 4–7, 8–15, 16+.
	Hist      [5]int  `json:"movement_hist"`
	TopMovers []Mover `json:"top_movers,omitempty"`
}

// Drift is the structured diff of two snapshots.
type Drift struct {
	OldEpoch  int64  `json:"old_epoch"`
	NewEpoch  int64  `json:"new_epoch"`
	OldDigest string `json:"old_digest"`
	NewDigest string `json:"new_digest"`
	// Metrics holds one entry per metric: the four country metrics in
	// their fixed order, then the global tops in sorted key order.
	Metrics []MetricDrift `json:"metrics"`
	// MaxChurn is the largest per-metric churn score — the scalar the
	// drift gate compares against its threshold.
	MaxChurn     float64 `json:"max_churn"`
	MaxRankDelta int     `json:"max_rank_delta"`
}

// Diff compares two snapshots' rank vectors and returns the structured
// drift, or nil when there is no previous snapshot to compare against.
// The computation is deterministic: for the same two snapshots it returns
// the same Drift — including bit-identical churn floats — no matter which
// process runs it.
func Diff(old, new *Snapshot) *Drift {
	if old == nil || new == nil {
		return nil
	}
	d := &Drift{
		OldEpoch: old.Epoch, NewEpoch: new.Epoch,
		OldDigest: old.Digest, NewDigest: new.Digest,
	}
	ccs := unionKeys(old.ranks.countries, new.ranks.countries)
	for i, metric := range countryMetricKeys {
		md := MetricDrift{Metric: metric}
		for _, cc := range ccs {
			moved := md.Moved + md.Entered + md.Exited
			diffPair(&md, metric, cc, old.ranks.countries[cc].vecs[i].Entries, new.ranks.countries[cc].vecs[i].Entries)
			if md.Moved+md.Entered+md.Exited > moved {
				md.CountriesMoved++
			}
		}
		finishMetric(&md)
		d.Metrics = append(d.Metrics, md)
	}
	for _, m := range unionKeys(old.ranks.tops, new.ranks.tops) {
		md := MetricDrift{Metric: m}
		diffPair(&md, m, "", old.ranks.tops[m].Entries, new.ranks.tops[m].Entries)
		finishMetric(&md)
		d.Metrics = append(d.Metrics, md)
	}
	for _, md := range d.Metrics {
		if md.Churn > d.MaxChurn {
			d.MaxChurn = md.Churn
		}
		if md.MaxRankDelta > d.MaxRankDelta {
			d.MaxRankDelta = md.MaxRankDelta
		}
	}
	return d
}

// diffPair folds one (metric, country) ranking pair into md. Union ASNs
// are visited in ascending order so the float accumulation order — and
// therefore the churn score bits — is a pure function of the two vectors.
func diffPair(md *MetricDrift, metric, cc string, oldVec, newVec []RankEntry) {
	if len(oldVec) == 0 && len(newVec) == 0 {
		return
	}
	oldPos := rankIndex(oldVec)
	newPos := rankIndex(newVec)
	union := make([]asn.ASN, 0, len(oldVec)+len(newVec))
	for _, e := range oldVec {
		union = append(union, e.ASN)
	}
	for _, e := range newVec {
		if _, ok := oldPos[e.ASN]; !ok {
			union = append(union, e.ASN)
		}
	}
	slices.Sort(union)
	bottomOld := len(oldVec) + 1
	bottomNew := len(newVec) + 1
	for _, a := range union {
		rOld, inOld := oldPos[a]
		rNew, inNew := newPos[a]
		if !inOld {
			rOld = bottomOld
		}
		if !inNew {
			rNew = bottomNew
		}
		delta := rOld - rNew
		if delta < 0 {
			delta = -delta
		}
		switch {
		case inOld && inNew:
			if delta == 0 {
				continue
			}
			md.Moved++
			md.Hist[histBucket(delta)]++
			if delta > md.MaxRankDelta {
				md.MaxRankDelta = delta
			}
		case inNew:
			md.Entered++
		default:
			md.Exited++
		}
		if delta > 0 {
			minRank := rOld
			if rNew < minRank {
				minRank = rNew
			}
			md.Churn += float64(delta) / float64(minRank)
		}
		name := ""
		if inNew {
			name = newVec[rNew-1].Name
		} else {
			name = oldVec[rOld-1].Name
		}
		mv := Mover{Metric: metric, Country: cc, ASN: a, Name: name, Score: delta}
		if inOld {
			mv.OldRank = rOld
		}
		if inNew {
			mv.NewRank = rNew
		}
		if mv.Score > 0 || !inOld || !inNew {
			md.TopMovers = append(md.TopMovers, mv)
		}
	}
}

// finishMetric orders the mover list (largest displacement first, ties
// broken by country then ASN so the order is total) and trims it.
func finishMetric(md *MetricDrift) {
	slices.SortFunc(md.TopMovers, func(a, b Mover) int {
		if a.Score != b.Score {
			return b.Score - a.Score
		}
		if c := strings.Compare(a.Country, b.Country); c != 0 {
			return c
		}
		return int(a.ASN) - int(b.ASN)
	})
	if len(md.TopMovers) > maxTopMovers {
		md.TopMovers = md.TopMovers[:maxTopMovers]
	}
}

// histBucket maps |Δrank| ≥ 1 onto the movement histogram: 1, 2–3, 4–7,
// 8–15, 16+.
func histBucket(delta int) int {
	switch {
	case delta <= 1:
		return 0
	case delta <= 3:
		return 1
	case delta <= 7:
		return 2
	case delta <= 15:
		return 3
	default:
		return 4
	}
}

// rankIndex maps ASN → 1-based rank for one vector.
func rankIndex(v []RankEntry) map[asn.ASN]int {
	m := make(map[asn.ASN]int, len(v))
	for i, e := range v {
		m[e.ASN] = i + 1
	}
	return m
}

// unionKeys returns the sorted union of two maps' keys.
func unionKeys[V any](a, b map[string]V) []string {
	out := make([]string, 0, len(a)+len(b))
	for k := range a {
		out = append(out, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// Export publishes the drift's aggregates into the metrics registry; the
// per-metric numbers, aligned by epoch, are /debug/history's series.
func (d *Drift) Export() {
	mDriftChurn.Set(d.MaxChurn)
	mDriftMaxDelta.Set(int64(d.MaxRankDelta))
	mDriftRollovers.Inc()
}

// Summary is the one-line drift digest carried in logs and the manifest.
func (d *Drift) Summary() string {
	var b strings.Builder
	b.WriteString("epoch ")
	b.WriteString(strconv.FormatInt(d.OldEpoch, 10))
	b.WriteString("->")
	b.WriteString(strconv.FormatInt(d.NewEpoch, 10))
	b.WriteString(" max_churn=")
	b.WriteString(fmtScore(d.MaxChurn))
	b.WriteString(" max_rank_delta=")
	b.WriteString(strconv.Itoa(d.MaxRankDelta))
	for _, md := range d.Metrics {
		b.WriteString(" ")
		b.WriteString(strings.ToLower(md.Metric))
		b.WriteString("=")
		b.WriteString(fmtScore(md.Churn))
	}
	return b.String()
}

// Render writes the paper-style delta report: the per-metric drift table
// and the top movers (at most n per metric; n <= 0 selects 10), in the
// Tables 10/11 case-study format — old rank, new rank, movement.
func (d *Drift) Render(n int) string {
	if n <= 0 {
		n = 10
	}
	var b strings.Builder
	b.WriteString("drift: epoch ")
	b.WriteString(strconv.FormatInt(d.OldEpoch, 10))
	b.WriteString(" -> ")
	b.WriteString(strconv.FormatInt(d.NewEpoch, 10))
	b.WriteString(", digest ")
	b.WriteString(shortDigest(d.OldDigest))
	b.WriteString(" -> ")
	b.WriteString(shortDigest(d.NewDigest))
	b.WriteString("\n\n")
	b.WriteString("metric  churn         moved  entered  exited  max_delta  countries_moved  hist(1/2-3/4-7/8-15/16+)\n")
	for _, md := range d.Metrics {
		writeCell(&b, strings.ToLower(md.Metric), 8)
		writeCell(&b, fmtScore(md.Churn), 14)
		writeCell(&b, strconv.Itoa(md.Moved), 7)
		writeCell(&b, strconv.Itoa(md.Entered), 9)
		writeCell(&b, strconv.Itoa(md.Exited), 8)
		writeCell(&b, strconv.Itoa(md.MaxRankDelta), 11)
		writeCell(&b, strconv.Itoa(md.CountriesMoved), 17)
		for i, h := range md.Hist {
			if i > 0 {
				b.WriteString("/")
			}
			b.WriteString(strconv.Itoa(h))
		}
		b.WriteString("\n")
	}
	b.WriteString("\ntop movers:\n")
	any := false
	for _, md := range d.Metrics {
		movers := md.TopMovers
		if len(movers) > n {
			movers = movers[:n]
		}
		for _, mv := range movers {
			any = true
			b.WriteString("  ")
			writeCell(&b, strings.ToLower(mv.Metric), 5)
			cc := mv.Country
			if cc == "" {
				cc = "-"
			}
			writeCell(&b, cc, 4)
			writeCell(&b, mv.ASN.String(), 9)
			writeCell(&b, mv.Name, 22)
			switch {
			case mv.OldRank == 0:
				b.WriteString("entered at rank ")
				b.WriteString(strconv.Itoa(mv.NewRank))
			case mv.NewRank == 0:
				b.WriteString("exited from rank ")
				b.WriteString(strconv.Itoa(mv.OldRank))
			default:
				b.WriteString("rank ")
				b.WriteString(strconv.Itoa(mv.OldRank))
				b.WriteString(" -> ")
				b.WriteString(strconv.Itoa(mv.NewRank))
				b.WriteString(" (")
				if up := mv.OldRank - mv.NewRank; up > 0 {
					b.WriteString("+")
					b.WriteString(strconv.Itoa(up))
				} else {
					b.WriteString(strconv.Itoa(up))
				}
				b.WriteString(")")
			}
			b.WriteString("\n")
		}
	}
	if !any {
		b.WriteString("  (none: rankings unchanged)\n")
	}
	b.WriteString("\nmax churn ")
	b.WriteString(fmtScore(d.MaxChurn))
	b.WriteString("\n")
	return b.String()
}

// writeCell pads s to width, always leaving at least one space so an
// over-wide value (a long churn float) cannot fuse with the next column.
func writeCell(b *strings.Builder, s string, width int) {
	b.WriteString(s)
	if len(s) >= width {
		b.WriteString(" ")
		return
	}
	for i := len(s); i < width; i++ {
		b.WriteString(" ")
	}
}

// fmtScore renders a churn score exactly the way the metrics exposition
// renders a FloatGauge (integral values without exponent, %g otherwise),
// so the CI smoke can string-compare the rankdiff report against the live
// /metrics value.
func fmtScore(v float64) string {
	if v == float64(int64(v)) && v >= -1e15 && v <= 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
