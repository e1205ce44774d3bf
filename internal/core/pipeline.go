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
}

// quorum is the minimum delivered fraction of expected VPs a source's
// collection must reach; below it Run fails loudly.
const quorum = 0.5

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
	return o
}

// Inputs is what a pipeline reads beside the collection and keeps: how
// complete the collection is, and stand-ins for what the paper downloads
// with it. Ground truth is not here; an experiment validating against it
// takes the world as an argument.
type Inputs struct {
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

// Pipeline holds one fully-processed snapshot. It does not hold the
// collection: every stage after sanitize reads the Dataset, so the records
// and paths are garbage once sanitize returns.
type Pipeline struct {
	Opt Options
	// Inputs is what the run read beside the collection. Rels is what the
	// cone and CTI metrics label relationships with.
	Inputs
	DS *sanitize.Dataset
	// Geo is the announced prefixes geolocated against Inputs.Geo, which it
	// shadows.
	Geo *geoloc.Table

	// views is the accepted records partitioned into every country's
	// national and international view (see indexViews).
	views viewIndex
	// coneStarts / ctiDepths hold each collection path's precomputed chain
	// resolution against Rels (view-independent), so per-trial kernel runs
	// skip the relationship oracle entirely. Only CTI reads ctiDepths, and
	// most runs never ask for CTI, so it is resolved on first use.
	coneStarts []int32
	ctiOnce    sync.Once
	ctiDepths  []int32
}

// A Source is the pipeline's first stage: it hands Run the collection and
// the Inputs beside it, opening its own spans under sp. Generated and
// MRTFiles are the two that build a world; NewPipelineFrom takes one in hand.
type Source func(opt Options, sp *obs.Span) (*routing.Collection, Inputs, error)

// Generated builds the synthetic world for the options and propagates
// routes over it; its coverage is complete by construction.
func Generated(opt Options, sp *obs.Span) (*routing.Collection, Inputs, error) {
	w := buildWorld(opt, sp)
	return routing.BuildCollection(w, routing.BuildOptions{}), observe(w, nil), nil
}

// MRTFiles imports TABLE_DUMP_V2 dumps (topogen's, same seed and scales)
// against the world the options describe. A VP is delivered when a peer
// index table the import read lists it, so a missing dump costs coverage (no
// dumps at all: 0/e, below any quorum) and a complete directory reads e/e; a
// corrupt record fails the import, naming its dump.
func MRTFiles(paths []string) Source {
	return func(opt Options, sp *obs.Span) (*routing.Collection, Inputs, error) {
		w := buildWorld(opt, sp)
		col, stats, err := routing.ImportMRTFiles(w, paths, routing.ImportOptions{})
		if err != nil {
			return nil, Inputs{}, err
		}
		return col, observe(w, &stats), nil
	}
}

func buildWorld(opt Options, sp *obs.Span) *topology.World {
	ts := sp.Child("topology")
	defer ts.End()
	return topology.Build(topology.Config{Seed: opt.Seed, Scenario: opt.Scenario, StubScale: opt.StubScale, VPScale: opt.VPScale})
}

// observe is where a generated world becomes pipeline input: what of w a
// researcher could download beside a collection observed over it. imp is the
// import that read the collection, whose losses are its coverage; nil means
// every VP delivered.
func observe(w *topology.World, imp *routing.ImportStats) Inputs {
	cov := Coverage{VPsExpected: w.VPs.Len(), VPsDelivered: w.VPs.Len()}
	if imp != nil {
		cov.VPsDelivered = imp.VPsNamed
		cov.RecordsLost = imp.Rejects
	}
	return Inputs{
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
	return mustRun(func(Options, *obs.Span) (*routing.Collection, Inputs, error) { return col, observe(w, nil), nil }, opt)
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
// live here and nowhere else. Coverage below the 50% quorum is an error, not
// a quietly wrong ranking; above it, lost data labels every ranking name. A
// cancelled ctx stops the run at the next stage boundary with ctx.Err().
// Sanitize is the collection's last reader, and Run lets go of it there.
func Run(ctx context.Context, src Source, opt Options) (*Pipeline, error) {
	opt = opt.withDefaults()
	sp := obs.StartSpan("pipeline")
	defer sp.End()
	col, in, err := src(opt, sp)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	if in.Coverage.Fraction() < quorum {
		return nil, fmt.Errorf("core: coverage %s below quorum %.0f%%", in.Coverage, quorum*100)
	}
	p := &Pipeline{Opt: opt, Inputs: in}
	for _, st := range []struct {
		name string
		skip bool
		run  func(*obs.Span)
	}{
		{"geolocate", false, func(*obs.Span) {
			p.Geo = geoloc.GeolocatePrefixes(in.Geo, col.AnnouncedPrefixes(), opt.Threshold)
		}},
		{"sanitize", false, func(s *obs.Span) {
			clique := map[asn.ASN]bool{}
			for _, a := range in.Clique {
				clique[a] = true
			}
			p.DS = sanitize.Run(col, sanitize.Config{
				Clique:       clique,
				Registry:     in.Registry,
				RouteServers: in.RouteServers,
				GeoTable:     p.Geo,
			})
			col = nil // the records and paths die with this span
			s.AddItems(int64(p.DS.Len()), "accepted")
		}},
		{"infer-relationships", !opt.InferRelationships, func(*obs.Span) {
			paths := p.DS.DistinctPaths()
			p.Rels = relation.Infer(paths, relation.InferClique(paths, 25))
		}},
		{"index", false, func(*obs.Span) { p.views = indexViews(p.DS) }},
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

// viewIndex partitions the accepted-record positions by view: slot 2k is
// the national view of prefix country k, slot 2k+1 its international view,
// and slot s holds order[off[s]:off[s+1]], ascending.
type viewIndex struct {
	country map[countries.Code]int32 // prefix country → k
	order   []int32
	off     []int32
}

// indexViews counting-sorts the accepted-record positions into their views.
// Sanitize accepts only records whose VP and prefix both have a country, so
// each lies in exactly one: its prefix country's national view when the VP's
// country is the same, its international view otherwise. Countries are
// resolved once per prefix and once per VP into slot numbers, so the two
// record passes compare no country codes and grow no slice.
func indexViews(ds *sanitize.Dataset) viewIndex {
	x := viewIndex{country: map[countries.Code]int32{}}
	prefixSlot := make([]int32, len(ds.PrefixCountry)) // the prefix country's national slot
	for p, c := range ds.PrefixCountry {
		k, ok := x.country[c]
		if !ok {
			k = int32(len(x.country))
			x.country[c] = k
		}
		prefixSlot[p] = 2 * k
	}
	vpSlot := make([]int32, len(ds.VPCountry)) // the VP country's national slot, -1 if it has no prefix
	for v, c := range ds.VPCountry {
		vpSlot[v] = -1
		if k, ok := x.country[c]; ok {
			vpSlot[v] = 2 * k
		}
	}
	slotOf := func(i int) int32 {
		s := prefixSlot[ds.PrefixIndex(i)]
		if vpSlot[ds.VPIndex(i)] != s {
			s++ // international
		}
		return s
	}
	slots := 2 * len(x.country)
	x.off = make([]int32, slots+1)
	for i := range ds.Len() {
		x.off[slotOf(i)+1]++
	}
	for s := range slots {
		x.off[s+1] += x.off[s]
	}
	x.order = make([]int32, ds.Len())
	next := slices.Clone(x.off[:slots])
	for i := range x.order {
		s := slotOf(i)
		x.order[next[s]] = int32(i)
		next[s]++
	}
	return x
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
// view, ascending. The country is ignored for Global, whose nil means "every
// accepted record" to the metric packages; every other view is non-nil, even
// when empty, so an absent country or an unknown kind never reads as global.
// A national or international view aliases the index and must not be
// mutated; an outbound view is scanned afresh. Safe for concurrent use.
func (p *Pipeline) ViewRecords(kind ViewKind, country countries.Code) []int32 {
	switch kind {
	case Global:
		return nil
	case National, International:
		if k, ok := p.views.country[country]; ok {
			s := 2*k + int32(kind) // National is 0, International 1
			lo, hi := p.views.off[s], p.views.off[s+1]
			return p.views.order[lo:hi:hi]
		}
	case Outbound:
		return p.outbound(country)
	}
	return []int32{}
}

// outbound is the view of c's VPs toward every other country's prefixes. It
// is not a slot of the index, because its records also lie in the other
// countries' international views, so it is one scan in record order, with
// the VP side decided once per VP.
func (p *Pipeline) outbound(c countries.Code) []int32 {
	inC := make([]bool, len(p.DS.VPCountry))
	for v, vc := range p.DS.VPCountry {
		inC[v] = vc == c
	}
	out := []int32{}
	for i := range p.DS.Len() {
		if inC[p.DS.VPIndex(i)] && p.DS.PrefixCountry[p.DS.PrefixIndex(i)] != c {
			out = append(out, int32(i))
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
