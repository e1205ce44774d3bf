package snapshot

// The epoch history ring: the Store retains the rank vectors (not the
// rendered bodies) of the last keep published snapshots, so rankd can
// answer "how did this country's rankings move across recent epochs"
// without holding whole snapshots alive. Two read surfaces:
//
//   - /v1/countries/{cc}/history — a public, preserialized page per
//     country, rendered by Publish before the snapshot becomes visible so
//     serving it keeps the zero-allocation pin;
//   - /debug/history — aligned epochs plus per-metric drift series, built
//     on demand (debug traffic).
//
// Ring invariants, enforced under the store mutex and asserted by the
// -race rollover hammer: entries are strictly epoch-ascending (a publish
// that does not advance the epoch is not recorded), at most keep entries
// are retained with the oldest dropped first, and every entry's vectors
// belong to exactly the snapshot that carried that epoch.

import (
	"slices"
	"strconv"
	"strings"

	"countryrank/internal/obs"
)

// DefaultHistoryEpochs is the history-ring depth when the caller never
// calls SetHistoryLimit.
const DefaultHistoryEpochs = 8

// histEntry is one retained epoch.
type histEntry struct {
	epoch  int64
	digest string
	ranks  *content // the snapshot's own, immutable
	drift  *Drift   // vs the previous publish; nil for the first
}

// SetHistoryLimit bounds the ring to the last keep epochs (keep < 1
// selects DefaultHistoryEpochs). Call before serving; it trims eagerly.
func (st *Store) SetHistoryLimit(keep int) {
	if keep < 1 {
		keep = DefaultHistoryEpochs
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	held := st.hist.Items()
	st.hist = obs.NewRing[histEntry](keep)
	for _, h := range held {
		st.hist.Push(h) // the last keep of them survive
	}
	mHistEpochs.Set(int64(st.hist.Len()))
}

// appendHistoryLocked records next in the ring (when it advances the
// epoch), evicts beyond the keep limit, and renders next's preserialized
// history pages from what the ring now holds. Caller holds st.mu (or, in
// NewStore, has exclusive ownership).
func (st *Store) appendHistoryLocked(next *Snapshot, d *Drift) {
	hist := st.hist.Items()
	if len(hist) == 0 || next.Epoch > hist[len(hist)-1].epoch {
		st.hist.Push(histEntry{epoch: next.Epoch, digest: next.Digest, ranks: next.ranks, drift: d})
		hist = st.hist.Items()
	}
	mHistEpochs.Set(int64(len(hist)))
	next.history = renderHistoryPages(hist)
}

// renderHistoryPages preserializes one history page per country appearing
// anywhere in the ring.
func renderHistoryPages(hist []histEntry) map[string]*entity {
	ccs := map[string]bool{}
	for _, h := range hist {
		for cc := range h.ranks.countries {
			ccs[cc] = true
		}
	}
	pages := make(map[string]*entity, len(ccs))
	for cc := range ccs {
		pages[cc] = newEntity(appendHistoryPage(nil, cc, hist))
	}
	return pages
}

// appendHistoryPage renders one country's aligned rank series:
//
//	{"country":"AU","epochs":[7,8,9],
//	 "series":{"CCI:1221":[1,1,2],"CCI:4826":[2,2,1],...}}
//
// Each series key is metric:asn; the value is that AS's 1-based rank per
// retained epoch, 0 where it was unranked. Metrics render in the fixed
// CCI/CCN/AHI/AHN order, ASNs ascending, so page bytes (and ETags) are a
// pure function of the ring contents.
func appendHistoryPage(dst []byte, cc string, hist []histEntry) []byte {
	dst = append(dst, `{"country":`...)
	dst = appendJSONString(dst, cc)
	dst = append(dst, `,"epochs":[`...)
	for i, h := range hist {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, h.epoch, 10)
	}
	dst = append(dst, `],"series":{`...)
	first := true
	for mi, metric := range countryMetricKeys {
		// Union of ASNs ever ranked for this metric across the ring.
		seen := map[uint32]bool{}
		var asns []uint32
		for _, h := range hist {
			for _, e := range h.ranks.countries[cc].vecs[mi].Entries {
				if !seen[uint32(e.ASN)] {
					seen[uint32(e.ASN)] = true
					asns = append(asns, uint32(e.ASN))
				}
			}
		}
		slices.Sort(asns)
		for _, a := range asns {
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, '"')
			dst = append(dst, metric...)
			dst = append(dst, ':')
			dst = strconv.AppendUint(dst, uint64(a), 10)
			dst = append(dst, `":[`...)
			for i, h := range hist {
				if i > 0 {
					dst = append(dst, ',')
				}
				r := 0
				for j, e := range h.ranks.countries[cc].vecs[mi].Entries {
					if uint32(e.ASN) == a {
						r = j + 1
						break
					}
				}
				dst = strconv.AppendInt(dst, int64(r), 10)
			}
			dst = append(dst, ']')
		}
	}
	return append(dst, `}}`...)
}

// HistoryData is the /debug/history document: retained epochs with their
// digests, plus per-metric drift series aligned with them.
type HistoryData struct {
	Epochs  []int64              `json:"epochs"`
	Digests []string             `json:"digests"`
	Series  map[string][]float64 `json:"series"`
}

// HistoryData snapshots the ring for /debug/history. The first retained
// epoch (and any epoch published without a computed drift) contributes
// zeros to the drift series.
func (st *Store) HistoryData() HistoryData {
	st.mu.Lock()
	hist := st.hist.Items()
	st.mu.Unlock()
	hd := HistoryData{
		Epochs:  make([]int64, len(hist)),
		Digests: make([]string, len(hist)),
		Series:  map[string][]float64{},
	}
	series := func(name string) []float64 {
		s, ok := hd.Series[name]
		if !ok {
			s = make([]float64, len(hist))
			hd.Series[name] = s
		}
		return s
	}
	for i, h := range hist {
		hd.Epochs[i] = h.epoch
		hd.Digests[i] = h.digest
		series("countries")[i] = float64(len(h.ranks.countries))
		if h.drift == nil {
			continue
		}
		for _, md := range h.drift.Metrics {
			key := strings.ToLower(md.Metric)
			series("churn_" + key)[i] = md.Churn
			series("countries_moved_" + key)[i] = float64(md.CountriesMoved)
			series("entered_" + key)[i] = float64(md.Entered)
			series("exited_" + key)[i] = float64(md.Exited)
		}
	}
	return hd
}
