// Package core assembles the paper's end-to-end pipeline (Figure 6): build
// or ingest a BGP path collection, sanitize it (§3.1), geolocate prefixes
// and vantage points (§3.2), slice the accepted records into national /
// international / global views, and compute the four country-specific
// ranking metrics — CCI, CCN, AHI, AHN — alongside the global (CCG, AHG)
// and baseline (AHC, CTI) metrics, plus the NDCG stability analysis of §4.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"countryrank/internal/asn"
	"countryrank/internal/cone"
	"countryrank/internal/countries"
	"countryrank/internal/cti"
	"countryrank/internal/geoloc"
	"countryrank/internal/hegemony"
	"countryrank/internal/ihr"
	"countryrank/internal/ndcg"
	"countryrank/internal/obs"
	"countryrank/internal/par"
	"countryrank/internal/rank"
	"countryrank/internal/relation"
	"countryrank/internal/routing"
	"countryrank/internal/sanitize"
	"countryrank/internal/topology"
	"countryrank/internal/vp"
)

// Per-kernel duration histograms wrap whole cone and hegemony invocations
// (Country, Global) — never the per-trial stability loop, which the
// stability span counts.
var (
	mKernelCone = obs.NewHistogram("countryrank_core_kernel_cone_seconds",
		"duration of one customer-cone kernel run", nil)
	mKernelHegemony = obs.NewHistogram("countryrank_core_kernel_hegemony_seconds",
		"duration of one AS-hegemony kernel run", nil)
)

// timeKernel starts a kernel stopwatch; invoke the returned func to record
// the elapsed time, e.g. defer timeKernel(mKernelCone)().
func timeKernel(h *obs.Histogram) func() {
	start := time.Now()
	return func() { h.Observe(time.Since(start)) }
}

// Sentinels for the Options fields whose useful ablation value collides
// with the zero value. The zero value of Options must keep reproducing the
// paper's defaults, so "explicitly zero" needs its own spelling: any
// negative value works, these constants are the documented ones.
const (
	// NoTrim disables hegemony/CTI trimming (the trim-0 ablation of
	// DESIGN.md). Options.Trim == 0 still means "paper default" (10%).
	NoTrim = -1.0
	// PluralityThreshold drops the prefix-geolocation majority requirement:
	// any plurality country wins. Options.Threshold == 0 still means the
	// paper's 50% majority.
	PluralityThreshold = -1.0
)

// Options configures a pipeline run. The zero value reproduces the paper's
// defaults: the April 2021 scenario, a 50% geolocation threshold, 10%
// hegemony trim, and ground-truth relationships.
type Options struct {
	Seed      int64
	Scenario  topology.Scenario
	StubScale float64
	VPScale   float64
	// IPv6 builds a dual-stack world (see topology.Config.IPv6).
	IPv6 bool
	// Threshold is the prefix-geolocation majority threshold. Zero selects
	// the paper's 0.5; PluralityThreshold (or any negative value) selects
	// an actual 0 threshold.
	Threshold float64
	// Trim is the per-side trim fraction for AH and CTI. Zero selects the
	// paper's 0.10; NoTrim (or any negative value) disables trimming.
	Trim float64
	// InferRelationships switches the cone metrics from Inputs.Rels to
	// relationships inferred from the accepted paths (the ablation of
	// DESIGN.md).
	InferRelationships bool
	// Quorum is the minimum delivered fraction of expected VPs a source's
	// collection must reach; below it Run fails loudly. Zero selects the
	// default 0.5; any negative value disables the gate.
	Quorum float64
	// Routing tunes collection assembly (days, anomaly rates).
	Routing routing.BuildOptions
}

func (o Options) withDefaults() Options {
	if o.Scenario == "" {
		o.Scenario = topology.Apr2021
	}
	switch {
	case o.Threshold == 0:
		o.Threshold = 0.5
	case o.Threshold < 0:
		o.Threshold = 0
	}
	switch {
	case o.Trim == 0:
		o.Trim = hegemony.DefaultTrim
	case o.Trim < 0:
		o.Trim = 0
	}
	switch {
	case o.Quorum == 0:
		o.Quorum = 0.5
	case o.Quorum < 0:
		o.Quorum = 0
	}
	return o
}

// Inputs is everything a pipeline reads: the collection, how complete it is,
// and stand-ins for what the paper downloads beside it. Ground truth is not
// here; an experiment validating against it takes the world as an argument.
type Inputs struct {
	Col      *routing.Collection
	Coverage Coverage
	Geo      *geoloc.DB // the address geolocation database
	VPs      *vp.Set    // vantage points, their collectors and locations
	// ASes looks up each AS's name, registration country, user estimate and
	// class; it holds no edges.
	ASes topology.ASes
	// Registry reports the allocated ASNs; RouteServers are the IXP route
	// servers sanitize strips from paths.
	Registry     *asn.Registry
	RouteServers map[asn.ASN]bool
	// Rels stands in for CAIDA's as-rel file and Clique for its published
	// clique; both are still filled from the generator's ground truth.
	// Options.InferRelationships replaces Rels with an inferred table.
	Rels   relation.Oracle
	Clique []asn.ASN
}

// Pipeline holds one fully-processed snapshot.
type Pipeline struct {
	Opt Options
	// Inputs is what the run read. Rels is what the cone and CTI metrics
	// label relationships with.
	Inputs
	DS *sanitize.Dataset
	// Geo is the announced prefixes geolocated against Inputs.Geo, which it
	// shadows.
	Geo *geoloc.Table

	// byPrefixCountry indexes accepted-record positions (ascending) by the
	// destination prefix's country, the common slicing key of all views; the
	// per-country slices partition one array.
	byPrefixCountry map[countries.Code][]int32
	// byVP groups accepted-record positions by vantage point (ascending
	// inside a VP), and vpsByCountry groups located VP indexes by country;
	// together they serve the Outbound view without scanning the full
	// dataset. Only that view reads byVP, so it is grouped on first use.
	byVPOnce     sync.Once
	byVP         sanitize.Groups
	vpsByCountry map[countries.Code][]int32
	// coneStarts / ctiDepths hold each collection path's precomputed chain
	// resolution against Rels (view-independent), so per-trial kernel runs
	// skip the relationship oracle entirely. Only CTI reads ctiDepths, and
	// most runs never ask for CTI, so it is resolved on first use.
	coneStarts []int32
	ctiOnce    sync.Once
	ctiDepths  []int32

	// viewCache memoizes ViewRecords per (kind, country): the experiment
	// fan-out recomputes the same views for hundreds of trials. Guarded by
	// viewMu because experiment loops run across a worker pool.
	viewMu    sync.RWMutex
	viewCache map[viewKey][]int32
}

// viewKey identifies one cached country view.
type viewKey struct {
	kind    ViewKind
	country countries.Code
}

// A Source is the pipeline's first stage: it hands Run its Inputs, opening
// its own spans under sp. Generated and MRTFiles are the two that build a
// world; NewPipelineFrom takes one in hand.
type Source func(opt Options, sp *obs.Span) (Inputs, error)

// Generated builds the synthetic world for the options and propagates
// routes over it; its coverage is complete by construction.
func Generated(opt Options, sp *obs.Span) (Inputs, error) {
	w := buildWorld(opt, sp)
	return observe(w, routing.BuildCollection(w, opt.Routing), nil), nil
}

// MRTFiles imports TABLE_DUMP_V2 dumps (topogen's, same seed and scales)
// against the world the options describe. A VP is delivered when a peer
// index table the import read lists it, so a missing dump costs coverage (no
// dumps at all: 0/e, below any quorum) and a complete directory reads e/e; a
// corrupt record fails the import, naming its dump.
func MRTFiles(paths []string) Source {
	return func(opt Options, sp *obs.Span) (Inputs, error) {
		w := buildWorld(opt, sp)
		col, stats, err := routing.ImportMRTFiles(w, paths, routing.ImportOptions{})
		if err != nil {
			return Inputs{}, err
		}
		return observe(w, col, &stats), nil
	}
}

func buildWorld(opt Options, sp *obs.Span) *topology.World {
	ts := sp.Child("topology")
	defer ts.End()
	return topology.Build(topology.Config{Seed: opt.Seed, Scenario: opt.Scenario, StubScale: opt.StubScale, VPScale: opt.VPScale, IPv6: opt.IPv6})
}

// observe is where a generated world becomes pipeline input: col, observed
// over w, and what of w a researcher could download. imp is the import that
// read col, whose losses are its coverage; nil means every VP delivered.
func observe(w *topology.World, col *routing.Collection, imp *routing.ImportStats) Inputs {
	cov := Coverage{VPsExpected: w.VPs.Len(), VPsDelivered: w.VPs.Len()}
	if imp != nil {
		cov.VPsDelivered = imp.VPsNamed
		cov.RecordsLost = imp.Rejects
	}
	return Inputs{
		Col:          col,
		Coverage:     cov,
		Geo:          w.Geo,
		VPs:          w.VPs,
		ASes:         w.Graph.ASes(),
		Registry:     w.Graph.Registry(),
		RouteServers: w.Graph.RouteServers(),
		Rels:         w.Graph,
		Clique:       w.Clique,
	}
}

// NewPipeline builds the synthetic world for the options and processes it.
func NewPipeline(opt Options) *Pipeline { return mustRun(Generated, opt) }

// NewPipelineFrom processes a collection the caller built over w, taken as
// complete.
func NewPipelineFrom(w *topology.World, col *routing.Collection, opt Options) *Pipeline {
	return mustRun(func(Options, *obs.Span) (Inputs, error) { return observe(w, col, nil), nil }, opt)
}

// mustRun runs a source that does no I/O and reports complete coverage,
// uncancelled: Run has no error left to return.
func mustRun(src Source, opt Options) *Pipeline {
	p, err := Run(context.Background(), src, opt)
	if err != nil {
		panic(err)
	}
	return p
}

// Run is the pipeline: source → geolocate → sanitize → (infer) → index →
// precompute. The stage order, its spans, the quorum gate and cancellation
// live here and nowhere else. Coverage below Options.Quorum is an error, not
// a quietly wrong ranking; above it, lost data labels every ranking name. A
// cancelled ctx stops the run at the next stage boundary with ctx.Err().
func Run(ctx context.Context, src Source, opt Options) (*Pipeline, error) {
	opt = opt.withDefaults()
	sp := obs.StartSpan("pipeline")
	defer sp.End()
	in, err := src(opt, sp)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	if in.Coverage.Fraction() < opt.Quorum {
		return nil, fmt.Errorf("core: coverage %s below quorum %.0f%%", in.Coverage, opt.Quorum*100)
	}
	p := &Pipeline{
		Opt:          opt,
		Inputs:       in,
		vpsByCountry: map[countries.Code][]int32{},
		viewCache:    map[viewKey][]int32{},
	}
	for _, st := range []struct {
		name string
		skip bool
		run  func(*obs.Span)
	}{
		{"geolocate", false, func(*obs.Span) {
			p.Geo = geoloc.GeolocatePrefixes(in.Geo, in.Col.AnnouncedPrefixes(), opt.Threshold)
		}},
		{"sanitize", false, func(s *obs.Span) {
			clique := map[asn.ASN]bool{}
			for _, a := range in.Clique {
				clique[a] = true
			}
			p.DS = sanitize.Run(in.Col, sanitize.Config{
				Clique:       clique,
				Registry:     in.Registry,
				RouteServers: in.RouteServers,
				GeoTable:     p.Geo,
			})
			s.AddItems(int64(p.DS.Len()), "accepted")
		}},
		{"infer-relationships", !opt.InferRelationships, func(*obs.Span) {
			paths := p.DS.DistinctPaths()
			p.Rels = relation.Infer(paths, relation.InferClique(paths, 25))
		}},
		{"index", false, func(*obs.Span) {
			p.byPrefixCountry = indexByPrefixCountry(p.DS)
			for v, c := range p.DS.VPCountry {
				if c != "" {
					p.vpsByCountry[c] = append(p.vpsByCountry[c], int32(v))
				}
			}
		}},
		{"precompute", false, func(*obs.Span) { p.coneStarts = cone.Starts(p.DS, p.Rels) }},
	} {
		if st.skip {
			continue
		}
		s := sp.Child(st.name)
		st.run(s)
		s.End()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// indexByPrefixCountry counting-sorts the accepted-record positions by the
// country of their prefix: the country is resolved once per prefix into a
// small slot number, the records are counted per slot, and one array of
// positions is filled and sliced per country — no map access and no slice
// growth per record. Positions stay ascending inside a country.
func indexByPrefixCountry(ds *sanitize.Dataset) map[countries.Code][]int32 {
	slotOf := map[countries.Code]int32{}
	prefixSlot := make([]int32, len(ds.PrefixCountry))
	for p, c := range ds.PrefixCountry {
		slot, ok := slotOf[c]
		if !ok {
			slot = int32(len(slotOf))
			slotOf[c] = slot
		}
		prefixSlot[p] = slot
	}
	off := make([]int32, len(slotOf)+1) // slot's run is order[off[slot]:off[slot+1]]
	for i := 0; i < ds.Len(); i++ {
		off[prefixSlot[ds.PrefixIndex(i)]+1]++
	}
	for slot := range len(slotOf) {
		off[slot+1] += off[slot]
	}
	order := make([]int32, ds.Len())
	next := slices.Clone(off)
	for i := range order {
		slot := prefixSlot[ds.PrefixIndex(i)]
		order[next[slot]] = int32(i)
		next[slot]++
	}
	index := make(map[countries.Code][]int32, len(slotOf))
	for c, slot := range slotOf {
		if off[slot] < off[slot+1] { // a country is listed for its records, not for its prefixes
			index[c] = order[off[slot]:off[slot+1]]
		}
	}
	return index
}

// ViewKind selects which VPs a country view uses (§3.2, Table 2).
type ViewKind uint8

const (
	// National: in-country VPs toward in-country prefixes.
	National ViewKind = iota
	// International: out-of-country VPs toward in-country prefixes.
	International
	// Global: all located VPs toward all geolocated prefixes.
	Global
	// Outbound: in-country VPs toward out-of-country prefixes — the
	// "paths out of a country" view the paper's §7 leaves as future work.
	Outbound
)

func (v ViewKind) String() string {
	switch v {
	case National:
		return "national"
	case International:
		return "international"
	case Global:
		return "global"
	case Outbound:
		return "outbound"
	}
	return fmt.Sprintf("ViewKind(%d)", v)
}

// ViewRecords returns the accepted-record positions of the (kind, country)
// view. The country is ignored for Global. Results are cached per
// (kind, country) and alias internal state; callers must not mutate them.
// Safe for concurrent use.
func (p *Pipeline) ViewRecords(kind ViewKind, country countries.Code) []int32 {
	if kind == Global {
		return nil // nil means "all accepted records" to the metric packages
	}
	k := viewKey{kind, country}
	p.viewMu.RLock()
	out, ok := p.viewCache[k]
	p.viewMu.RUnlock()
	if ok {
		return out
	}
	out = p.computeView(kind, country)
	p.viewMu.Lock()
	if prior, ok := p.viewCache[k]; ok {
		out = prior // another worker won the race; keep one canonical slice
	} else {
		p.viewCache[k] = out
	}
	p.viewMu.Unlock()
	return out
}

func (p *Pipeline) computeView(kind ViewKind, country countries.Code) []int32 {
	// Country views are never nil, even when empty: the metric packages
	// treat nil as "every record", which would silently turn a
	// no-in-country-VP national view into a global computation.
	out := []int32{}
	if kind == Outbound {
		// In-country VPs toward everyone else's prefixes, served by the
		// VP index (the prefix-country index cannot serve this view);
		// sorted back to record order, the order a full scan would give.
		p.byVPOnce.Do(func() { p.DS.GroupByVP(&p.byVP, nil) })
		for _, vpIdx := range p.vpsByCountry[country] {
			for _, i := range p.byVP.Run(vpIdx) {
				if p.DS.PrefixCountry[p.DS.PrefixIndex(int(i))] != country {
					out = append(out, i)
				}
			}
		}
		slices.Sort(out)
		return out
	}
	// Two passes over the prefix-country index: count, then fill a view of
	// its final length (the views are kept for the epoch, so growing them by
	// append would allocate about four times what they hold). Which VPs the
	// view keeps is decided once per VP, so a pass compares no country codes.
	keep := make([]bool, len(p.DS.VPCountry))
	for v, vc := range p.DS.VPCountry {
		keep[v] = kind == National && vc == country || kind == International && vc != "" && vc != country
	}
	recs := p.byPrefixCountry[country]
	n := 0
	for _, i := range recs {
		if keep[p.DS.VPIndex(int(i))] {
			n++
		}
	}
	out = make([]int32, 0, n)
	for _, i := range recs {
		if keep[p.DS.VPIndex(int(i))] {
			out = append(out, i)
		}
	}
	return out
}

// Info returns the presentation metadata resolver for rankings.
func (p *Pipeline) Info() rank.InfoFunc {
	return func(a asn.ASN) rank.ASInfo {
		node, _ := p.ASes.ByASN(a) // an unknown AS is the zero record
		return rank.ASInfo{Name: node.Name, Country: node.Registered}
	}
}

// Metric identifies one of the rankings the pipeline can produce.
type Metric string

// The paper's metrics (§3) and baselines (§1.2.1, §1.3).
const (
	CCI Metric = "CCI"
	CCN Metric = "CCN"
	AHI Metric = "AHI"
	AHN Metric = "AHN"
	CCG Metric = "CCG"
	AHG Metric = "AHG"
	AHC Metric = "AHC"
	CTI Metric = "CTI"
)

// CountryRankings bundles the four country-specific rankings.
type CountryRankings struct {
	Country            countries.Code
	CCI, CCN, AHI, AHN *rank.Ranking
}

// Country computes the paper's four metrics for one country.
func (p *Pipeline) Country(c countries.Code) *CountryRankings {
	intl := p.ViewRecords(International, c)
	natl := p.ViewRecords(National, c)
	info := p.Info()

	// The four metrics are independent; fan them out.
	var coneI, coneN cone.Scores
	var ahI, ahN hegemony.Scores
	par.Do(
		func() { defer timeKernel(mKernelCone)(); coneI = cone.ComputeFrom(p.DS, intl, p.Rels, p.coneStarts) },
		func() { defer timeKernel(mKernelCone)(); coneN = cone.ComputeFrom(p.DS, natl, p.Rels, p.coneStarts) },
		func() { defer timeKernel(mKernelHegemony)(); ahI = hegemony.Compute(p.DS, intl, p.Opt.Trim) },
		func() { defer timeKernel(mKernelHegemony)(); ahN = hegemony.Compute(p.DS, natl, p.Opt.Trim) },
	)

	return &CountryRankings{
		Country: c,
		CCI:     rank.New(p.label(string(CCI)+" "+string(c)), coneI.Shares(), info, true),
		CCN:     rank.New(p.label(string(CCN)+" "+string(c)), coneN.Shares(), info, true),
		AHI:     rank.New(p.label(string(AHI)+" "+string(c)), ahI.Hegemony, info, true),
		AHN:     rank.New(p.label(string(AHN)+" "+string(c)), ahN.Hegemony, info, true),
	}
}

// Global computes the global customer cone (CCG, AS Rank's metric) and
// global hegemony (AHG, IHR's metric) over all accepted records.
func (p *Pipeline) Global() (ccg, ahg *rank.Ranking) {
	return p.coneAndHegemony(nil, string(CCG), string(AHG))
}

// coneAndHegemony ranks the records by customer cone, then by hegemony,
// under the two names.
func (p *Pipeline) coneAndHegemony(recs []int32, coneName, hegName string) (*rank.Ranking, *rank.Ranking) {
	info := p.Info()
	doneC := timeKernel(mKernelCone)
	cs := cone.ComputeFrom(p.DS, recs, p.Rels, p.coneStarts)
	doneC()
	doneH := timeKernel(mKernelHegemony)
	hs := hegemony.Compute(p.DS, recs, p.Opt.Trim)
	doneH()
	return rank.New(p.label(coneName), cs.Shares(), info, true), rank.New(p.label(hegName), hs.Hegemony, info, true)
}

// OutboundRankings bundles the §7 future-work "paths out of a country"
// metrics: which ASes carry a country's outbound reach.
type OutboundRankings struct {
	Country  countries.Code
	CCO, AHO *rank.Ranking
}

// Outbound computes cone and hegemony over the outbound view: in-country
// VPs toward out-of-country prefixes. The paper's §7 names this direction
// as future work; it answers "whose networks does this country rely on to
// reach the rest of the world?".
func (p *Pipeline) Outbound(c countries.Code) *OutboundRankings {
	cco, aho := p.coneAndHegemony(p.ViewRecords(Outbound, c), "CCO "+string(c), "AHO "+string(c))
	return &OutboundRankings{Country: c, CCO: cco, AHO: aho}
}

// AHC computes the IHR country-level baseline for c.
func (p *Pipeline) AHC(c countries.Code) *rank.Ranking {
	s := ihr.Compute(p.DS, p.ASes, c, p.Opt.Trim)
	return rank.New(p.label(string(AHC)+" "+string(c)), s.AHC, p.Info(), true)
}

// CTI computes the country-level transit influence baseline for c over its
// international view. Safe for concurrent use.
func (p *Pipeline) CTI(c countries.Code) *rank.Ranking {
	recs := p.ViewRecords(International, c)
	p.ctiOnce.Do(func() { p.ctiDepths = cti.Depths(p.DS, p.Rels) })
	s := cti.ComputeFrom(p.DS, recs, p.Rels, p.ctiDepths, p.Opt.Trim)
	return rank.New(p.label(string(CTI)+" "+string(c)), s.CTI, p.Info(), true)
}

// sampler is the (metric, view) state the trials of one Stability call
// combine; it is read-only once built and safe for concurrent use.
type sampler struct {
	vps int // the view's VP population
	// fullVals are the full view's values — the baseline trials are scored
	// against — and fullOrder its top k.
	fullVals  map[asn.ASN]float64
	fullOrder []asn.ASN
	// top maps chosen VP positions to the trial's top-k ASNs. A trial only
	// consumes the top list, so the kernels stream into a window and neither
	// a map nor a Ranking is built; cone trials select on raw address weights
	// — the exact uint64 values whose shares rank.New would sort by.
	top func(sel []int32) []asn.ASN
}

// newSampler walks the view once per kernel: the per-VP state trials
// recombine also yields the full view's values.
func (p *Pipeline) newSampler(m Metric, full []int32, k int) *sampler {
	s := &sampler{}
	switch m {
	case CCI, CCN, CCG:
		ws := cone.Witness(p.DS, full, p.coneStarts)
		s.vps = ws.VPs()
		// Shares need the view's total weight, which only ComputeFrom counts.
		s.fullVals = cone.ComputeFrom(p.DS, full, p.Rels, p.coneStarts).Shares()
		s.top = func(sel []int32) []asn.ASN {
			w := newTopK[uint64](k)
			ws.Each(sel, w.add)
			return w.asns()
		}
	case AHI, AHN, AHG:
		pv := hegemony.Accumulate(p.DS, full)
		s.vps = pv.VPs()
		s.fullVals = pv.Scores(nil, p.Opt.Trim).Hegemony
		s.top = func(sel []int32) []asn.ASN {
			w := newTopK[float64](k)
			pv.Each(sel, p.Opt.Trim, w.add)
			return w.asns()
		}
	default:
		panic(fmt.Sprintf("core: metric %q has no subset form", m))
	}
	s.fullOrder = rank.New(string(m), s.fullVals, nil, true).TopASNs(k)
	return s
}

// trialScore is one trial's top list measured against the full view's.
type trialScore struct{ ndcgV, tau, jac float64 }

// trial draws n of the view's VPs from seed and scores what they see.
func (s *sampler) trial(seed int64, n int) trialScore {
	d := trialDraws.Get().(*trialDraw)
	top := s.top(d.first(seed, s.vps, n))
	trialDraws.Put(d)
	return trialScore{
		ndcgV: ndcg.NDCG(top, s.fullVals, s.fullOrder, ndcg.DefaultK),
		tau:   ndcg.KendallTau(top, s.fullOrder, ndcg.DefaultK),
		jac:   ndcg.Jaccard(top, s.fullOrder, ndcg.DefaultK),
	}
}

// topK is a window over a stream of (AS, value): it keeps the k
// highest-valued ASes (descending value, ascending ASN ties, zeros dropped —
// rank.New's ordering, which is total, so the order of the stream cannot
// show) by insertion into a small sorted slice.
type topK[V interface{ ~uint64 | ~float64 }] struct {
	best []topEntry[V] // at most cap(best), best first
}

func newTopK[V interface{ ~uint64 | ~float64 }](k int) topK[V] {
	return topK[V]{best: make([]topEntry[V], 0, k)}
}

type topEntry[V interface{ ~uint64 | ~float64 }] struct {
	a asn.ASN
	v V
}

func (x topEntry[V]) ranksBefore(y topEntry[V]) bool {
	if x.v != y.v {
		return x.v > y.v
	}
	return x.a < y.a
}

func (w *topK[V]) add(a asn.ASN, v V) {
	if v == 0 {
		return
	}
	e := topEntry[V]{a, v}
	if len(w.best) < cap(w.best) {
		w.best = append(w.best, e)
	} else if e.ranksBefore(w.best[len(w.best)-1]) {
		w.best[len(w.best)-1] = e
	} else {
		return
	}
	for i := len(w.best) - 1; i > 0 && w.best[i].ranksBefore(w.best[i-1]); i-- {
		w.best[i], w.best[i-1] = w.best[i-1], w.best[i]
	}
}

// asns returns the window's ASes, best first.
func (w *topK[V]) asns() []asn.ASN {
	out := make([]asn.ASN, len(w.best))
	for i, e := range w.best {
		out[i] = e.a
	}
	return out
}

// trialDraw is a stability trial's generator and permutation buffer, pooled:
// seeding a generator fills its 607-word state in place, so a fresh 4.9 KB
// source and an 8-bytes-per-VP permutation per trial buy nothing.
type trialDraw struct {
	src  rngSource
	rng  *rand.Rand // over src
	perm []int32
}

var trialDraws = sync.Pool{New: func() any {
	d := &trialDraw{}
	d.rng = rand.New(&d.src)
	return d
}}

// first returns rand.New(rand.NewSource(seed)).Perm(vps)[:n]: Seed leaves src
// drawing exactly as NewSource(seed) would, and the loop is Perm's own
// inside-out shuffle, Intn call for Intn call (the i = 0 draw included: it
// moves nothing but advances the stream). The result is d's until its next
// call.
func (d *trialDraw) first(seed int64, vps, n int) []int32 {
	d.rng.Seed(seed)
	d.perm = sanitize.Grow(d.perm, vps)
	for i := 0; i < vps; i++ {
		j := d.rng.Intn(i + 1)
		d.perm[i] = d.perm[j]
		d.perm[j] = int32(i)
	}
	return d.perm[:n]
}

// viewKindOf maps a country metric to its view.
func viewKindOf(m Metric) ViewKind {
	switch m {
	case CCI, AHI:
		return International
	case CCN, AHN:
		return National
	}
	return Global
}

// StabilityPoint is one sample size of a Figure 4 / Figure 5 curve.
type StabilityPoint struct {
	VPs      int
	MeanNDCG float64
	Trials   int
	// MeanTau and MeanJaccard are the alternative list-similarity measures
	// §4.1 implicitly rejects in favor of NDCG, computed for the ablation.
	MeanTau     float64
	MeanJaccard float64
}

// Stability measures how the (metric, country) top-10 ranking degrades as
// VPs are removed (§4): for each requested sample size it draws trials
// random VP subsets, recomputes the metric, and averages NDCG (plus the
// Kendall-tau and Jaccard ablation measures) against the full-view ranking.
// Recomputing never walks records: the view's per-VP state is built once per
// call and each trial combines it over its subset (see sampler). Fewer than
// one trial yields nil.
//
// Trials fan out across a bounded worker pool. Each (size, trial) cell
// draws its VP subset from its own sub-seed derived from seed, and the
// per-size means sum in trial order, so the output depends only on seed —
// never on scheduling.
func (p *Pipeline) Stability(m Metric, c countries.Code, sizes []int, trials int, seed int64) []StabilityPoint {
	sp := obs.StartSpan("stability " + string(m) + " " + string(c))
	sp.AddItems(0, "trials")
	defer sp.End()
	if trials < 1 {
		return nil
	}
	s := p.newSampler(m, p.ViewRecords(viewKindOf(m), c), ndcg.DefaultK)

	var valid []int
	for _, n := range sizes {
		if n > 0 && n <= s.vps {
			valid = append(valid, n)
		}
	}

	results := make([][]trialScore, len(valid))
	for si := range results {
		results[si] = make([]trialScore, trials)
	}
	par.ForEach(len(valid)*trials, func(job int) {
		si, trial := job/trials, job%trials
		results[si][trial] = s.trial(subSeed(seed, si, trial), valid[si])
		sp.AddItems(1, "")
	})

	var out []StabilityPoint
	for si, n := range valid {
		var sumNDCG, sumTau, sumJac float64
		for _, r := range results[si] {
			sumNDCG += r.ndcgV
			sumTau += r.tau
			sumJac += r.jac
		}
		out = append(out, StabilityPoint{
			VPs:         n,
			MeanNDCG:    sumNDCG / float64(trials),
			MeanTau:     sumTau / float64(trials),
			MeanJaccard: sumJac / float64(trials),
			Trials:      trials,
		})
	}
	return out
}

// subSeed derives the deterministic RNG seed for one (size, trial) cell
// from the parent seed via a splitmix64-style mix, so trials are
// independent of each other and of scheduling order.
func subSeed(seed int64, sizeIdx, trial int) int64 {
	x := uint64(seed) ^ 0x9E3779B97F4A7C15
	x ^= uint64(sizeIdx+1) * 0xBF58476D1CE4E5B9
	x ^= uint64(trial+1) * 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// ViewVPCount returns how many distinct VPs contribute to a view.
func (p *Pipeline) ViewVPCount(kind ViewKind, c countries.Code) int {
	seen := make([]bool, len(p.DS.VPCountry))
	n := 0
	count := func(i int) {
		if vp := p.DS.VPIndex(i); !seen[vp] {
			seen[vp] = true
			n++
		}
	}
	if recs := p.ViewRecords(kind, c); recs != nil {
		for _, i := range recs {
			count(int(i))
		}
	} else { // the global view: every accepted record
		for i := range p.DS.Len() {
			count(i)
		}
	}
	return n
}
