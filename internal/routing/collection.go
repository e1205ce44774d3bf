package routing

import (
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"sync"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/obs"
	"countryrank/internal/par"
	"countryrank/internal/topology"
	"countryrank/internal/vp"
)

var (
	mPathsPropagated = obs.NewCounter("countryrank_routing_paths_propagated_total",
		"best paths exported by vantage points during route propagation")
	mRecordsBuilt = obs.NewCounter("countryrank_routing_records_built_total",
		"(VP, prefix, path) records assembled into collections")
	mShardsDone = obs.NewCounter("countryrank_routing_shards_done_total",
		"propagation shards completed and merged into a collection")
)

// Record is one observed (vantage point, prefix, AS path) triple in
// dense-index form: the unit the paper's Table 1 accounts for and every
// metric consumes. VP indexes Collection.VPs, Prefix indexes
// Collection.Prefixes, Path indexes Collection.Paths.
type Record struct {
	VP     int32
	Prefix int32
	Path   int32
}

// Collection is a multi-day observation of the world from its vantage
// points: the synthetic equivalent of the five daily RIB snapshots the paper
// takes from RouteViews and RIPE RIS.
type Collection struct {
	// VPs are the vantage points the records index, with their collectors
	// and locations.
	VPs      *vp.Set
	Prefixes []netip.Prefix
	// Origin[i] is the origin AS of Prefixes[i].
	Origin []asn.ASN
	Paths  []bgp.Path
	// Records holds every (VP, prefix, path) observation of the base day in
	// canonical order: by origin, VP, then prefix for a built collection,
	// stream order for an imported one.
	Records []Record
	// Stable[i] reports whether Prefixes[i] was announced on every one of
	// the Days daily snapshots; unstable prefixes are filtered by the
	// sanitizer (Table 1's largest reject class after VP location).
	Stable []bool
	// DayMask[i] records per-day presence: bit d set means Prefixes[i] was
	// announced on day d. Stable[i] == (all Days bits set).
	DayMask []uint16
	Days    int

	// byVP is Records grouped by vantage point (VP v's records are
	// byVP[vpStart[v]:vpStart[v+1]]), which the MRT exports read a collector
	// at a time; see collectorRecords. Nothing modifies a Collection once it
	// is built, so the grouping the first export makes stays true.
	byVPOnce sync.Once
	byVP     []Record
	vpStart  []int32
}

// NumRecords returns the collection's record count.
func (c *Collection) NumRecords() int { return len(c.Records) }

// BuildOptions tunes collection assembly. Zero values select the rates that
// reproduce Table 1's reject-class proportions.
type BuildOptions struct {
	Days int
	// UnstableFrac is the fraction of prefixes missing from ≥1 daily RIB.
	UnstableFrac float64
	// LoopFrac / PoisonFrac / UnallocFrac are per-record corruption rates.
	LoopFrac    float64
	PoisonFrac  float64
	UnallocFrac float64
	Seed        int64
	// Shards splits propagation into this many contiguous origin ranges,
	// propagated in parallel and merged in shard order; the output is
	// byte-identical for every shard count and GOMAXPROCS. 0 picks
	// 4×GOMAXPROCS. 1 is the sequential baseline.
	Shards int
}

func (o BuildOptions) withDefaults(w *topology.World) BuildOptions {
	if o.Days == 0 {
		o.Days = 5
	}
	if o.UnstableFrac == 0 {
		o.UnstableFrac = 0.08
	}
	if o.LoopFrac == 0 {
		o.LoopFrac = 0.0008
	}
	if o.PoisonFrac == 0 {
		o.PoisonFrac = 0.0001
	}
	if o.UnallocFrac == 0 {
		o.UnallocFrac = 0.0009
	}
	if o.Seed == 0 {
		o.Seed = w.Config.Seed + 7
	}
	return o
}

// BuildCollection propagates every origin's routes across the world and
// records the best path each vantage point exports, then injects the
// real-world dirt (loops, poisoned paths, unallocated ASNs, day-to-day
// instability) the sanitizer must handle.
func BuildCollection(w *topology.World, opt BuildOptions) *Collection {
	opt = opt.withDefaults(w)
	g := w.Graph
	rng := rand.New(rand.NewSource(opt.Seed))
	sp := obs.StartSpan("propagate")
	defer sp.End()

	col := &Collection{VPs: w.VPs, Days: opt.Days}

	// Index prefixes.
	prefixIdx := map[netip.Prefix]int32{}
	for _, po := range g.AllPrefixes() {
		if _, dup := prefixIdx[po.Prefix]; dup {
			continue // MOAS: first origin wins in the index; rare by design
		}
		prefixIdx[po.Prefix] = int32(len(col.Prefixes))
		col.Prefixes = append(col.Prefixes, po.Prefix)
		col.Origin = append(col.Origin, po.Origin)
	}

	// Group prefix indexes by origin node.
	byOrigin := make([][]int32, g.NumASes())
	for i := range col.Prefixes {
		node, ok := g.Index(col.Origin[i])
		if !ok {
			continue
		}
		byOrigin[node] = append(byOrigin[node], int32(i))
	}

	// VP nodes.
	type vpAt struct {
		vpIdx int32
		node  int32
		feed  vp.FeedType
	}
	var vps []vpAt
	for i := 0; i < w.VPs.Len(); i++ {
		v := w.VPs.VP(i)
		node, ok := g.Index(v.AS)
		if !ok {
			continue
		}
		vps = append(vps, vpAt{int32(i), node, v.Feed})
	}

	// Day-to-day instability: stable prefixes appear in every daily RIB;
	// unstable ones flap, missing at least one day. Drawn before the merge,
	// whose per-record anomaly draws continue the same rng sequence.
	col.Stable = make([]bool, len(col.Prefixes))
	col.DayMask = make([]uint16, len(col.Prefixes))
	full := uint16(1<<opt.Days) - 1
	for i := range col.Stable {
		if rng.Float64() >= opt.UnstableFrac {
			col.Stable[i] = true
			col.DayMask[i] = full
			continue
		}
		mask := uint16(0)
		for d := 0; d < opt.Days; d++ {
			if rng.Float64() < 0.7 {
				mask |= 1 << d
			}
		}
		// Flapping means visible at least once and absent at least once.
		if mask == 0 {
			mask = 1
		}
		if mask == full {
			mask &^= 1 << uint(rng.Intn(opt.Days))
		}
		col.DayMask[i] = mask
	}

	// Shard plan: contiguous ranges over the origins that announce
	// anything, so merging shards in index order IS origin order — the
	// canonical record order, independent of GOMAXPROCS and shard count.
	var active []int32
	for origin := int32(0); origin < int32(g.NumASes()); origin++ {
		if len(byOrigin[origin]) > 0 {
			active = append(active, origin)
		}
	}
	shards := opt.Shards
	if shards <= 0 {
		shards = 4 * runtime.GOMAXPROCS(0)
	}
	if shards > len(active) {
		shards = len(active)
	}
	if shards < 1 {
		shards = 1
	}

	// Size the output up front: repeated append-doubling of
	// multi-megabyte slices dominates the profile otherwise. Nearly
	// every full-feed VP has a route to every origin, so records ≈
	// VPs × prefixes; customer feeds make this a mild overestimate.
	est := len(vps) * len(col.Prefixes)
	const maxEst = 64 << 20
	if est > maxEst {
		est = maxEst
	}
	col.Records = make([]Record, 0, est)

	// Per-shard propagation states are pooled: OrderedMap runs at most
	// GOMAXPROCS producers, so the pool holds that many states at peak no
	// matter how many shards the run splits into.
	g.ASNs() // warm the cache once; workers then only read it
	statePool := sync.Pool{New: func() any { return newPropState(g) }}

	// One shard's routes, grouped by origin: counts[k] routes belong to the
	// k-th origin of the shard, flattened into vpIdxs/pathOf. pathOf numbers
	// the shard's distinct paths in first-appearance order; path l is
	// hops[off[l]:off[l+1]] in the shard's arena.
	type shardRoutes struct {
		counts []int32
		vpIdxs []int32
		pathOf []int32
		hops   []asn.ASN
		off    []int32
	}
	produce := func(si int) shardRoutes {
		lo, hi := si*len(active)/shards, (si+1)*len(active)/shards
		st := statePool.Get().(*propState)
		defer statePool.Put(st)
		out := shardRoutes{off: []int32{0}}
		for _, origin := range active[lo:hi] {
			propagate(g, origin, st)
			n0 := len(out.vpIdxs)
			for _, v := range vps {
				cls := st.class[v.node]
				if cls == classNone {
					continue
				}
				// Customer-feed VPs export only customer-learned (or
				// own) routes, like a peer applying export policy.
				if v.feed == vp.CustomerFeed && cls > classCustomer {
					continue
				}
				l := st.pathAt[v.node]
				if l < 0 {
					l = int32(len(out.off) - 1)
					st.pathAt[v.node] = l
					out.hops = appendPath(g, st, v.node, out.hops)
					out.off = append(out.off, int32(len(out.hops)))
				}
				out.vpIdxs = append(out.vpIdxs, v.vpIdx)
				out.pathOf = append(out.pathOf, l)
			}
			out.counts = append(out.counts, int32(len(out.vpIdxs)-n0))
		}
		return out
	}

	// The merge runs on this goroutine in strict shard order: number each
	// path at its first route, fan the route out across the origin's
	// prefixes, inject the per-record anomalies (rng draws stay in record
	// order), and append each record straight onto col.Records.
	//
	// Numbering needs no hashing: a routing tree holds one path per node and
	// every path ends in its origin, so tree paths are pairwise distinct
	// across (origin, VP node), and a mutated path carries a loop, a
	// reserved ASN or a valley, which no tree path does. Only mutated paths
	// can repeat (two records of one route drawing the same corruption);
	// they are rare and deduplicated through mutated.
	an := newAnomalizer(w, rng, opt)
	mutated := map[string]int32{}
	var nRoutes int64
	var global []int32 // shard-local path number → index in col.Paths
	consume := func(si int, rt shardRoutes) {
		lo, hi := si*len(active)/shards, (si+1)*len(active)/shards
		if si == 0 {
			// The shards hold equal shares of the origins and every origin
			// is seen from much the same vantage points, so the first
			// shard's path count sizes the table, mutated paths included,
			// to within a few percent; append covers the rest.
			n := len(rt.off) - 1
			col.Paths = make([]bgp.Path, 0, shards*(n+n/32))
		}
		global = global[:0]
		recs := col.Records
		k := 0
		for oi, origin := range active[lo:hi] {
			pfxs := byOrigin[origin]
			for j := int32(0); j < rt.counts[oi]; j++ {
				vpIdx, l := rt.vpIdxs[k], rt.pathOf[k]
				k++
				if int(l) == len(global) {
					// The header aliases the shard's arena, capped so an
					// append by a consumer cannot reach the next path.
					a, b := rt.off[l], rt.off[l+1]
					global = append(global, int32(len(col.Paths)))
					col.Paths = append(col.Paths, bgp.Path(rt.hops[a:b:b]))
				}
				pi := global[l]
				path := col.Paths[pi]
				for _, pfx := range pfxs {
					rec := Record{VP: vpIdx, Prefix: pfx, Path: pi}
					if m := an.maybeMutate(path); m != nil {
						key := m.Key()
						mi, seen := mutated[key]
						if !seen {
							mi = int32(len(col.Paths))
							mutated[key] = mi
							col.Paths = append(col.Paths, m)
						}
						rec.Path = mi
					}
					recs = append(recs, rec)
				}
			}
		}
		col.Records = recs
		nRoutes += int64(len(rt.vpIdxs))
		mShardsDone.Inc()
	}
	par.OrderedMap(shards, 0, produce, consume)

	mPathsPropagated.Add(nRoutes)
	mRecordsBuilt.Add(int64(len(col.Records)))
	sp.AddItems(int64(len(col.Records)), "records")
	return col
}

// anomalizer corrupts a small fraction of records the way public BGP data
// is corrupted: AS path loops, poisoned paths (a non-clique AS wedged
// between two clique ASes), and unallocated ASNs. One rng draw per record,
// in record order, keeps the injection deterministic under sharding.
type anomalizer struct {
	rng       *rand.Rand
	opt       BuildOptions
	cliqueSet map[asn.ASN]bool
	stubPool  []asn.ASN
}

func newAnomalizer(w *topology.World, rng *rand.Rand, opt BuildOptions) *anomalizer {
	g := w.Graph
	a := &anomalizer{rng: rng, opt: opt, cliqueSet: map[asn.ASN]bool{}}
	for _, c := range w.Clique {
		a.cliqueSet[c] = true
	}
	// A pool of real stub ASNs for poisoning payloads.
	for i := int32(0); i < int32(g.NumASes()); i++ {
		if g.Node(i).Class == topology.ClassStub {
			a.stubPool = append(a.stubPool, g.Node(i).ASN)
			if len(a.stubPool) >= 64 {
				break
			}
		}
	}
	slices.Sort(a.stubPool)
	return a
}

// maybeMutate draws one record's anomaly verdict and returns the corrupted
// path, or nil to keep the original.
func (a *anomalizer) maybeMutate(p bgp.Path) bgp.Path {
	r := a.rng.Float64()
	switch opt := a.opt; {
	case r < opt.LoopFrac:
		if len(p) < 3 {
			return nil
		}
		// Re-insert the first hop later in the path: A B A B C.
		out := make(bgp.Path, 0, len(p)+2)
		out = append(out, p[0], p[1], p[0])
		out = append(out, p[1:]...)
		return out
	case r < opt.LoopFrac+opt.PoisonFrac:
		if len(a.stubPool) == 0 {
			return nil
		}
		// Insert a stub between two adjacent clique ASes.
		for j := 0; j+1 < len(p); j++ {
			if a.cliqueSet[p[j]] && a.cliqueSet[p[j+1]] && !p.Contains(a.stubPool[0]) {
				out := make(bgp.Path, 0, len(p)+1)
				out = append(out, p[:j+1]...)
				out = append(out, a.stubPool[a.rng.Intn(len(a.stubPool))])
				out = append(out, p[j+1:]...)
				if out.HasNonAdjacentLoop() {
					return nil
				}
				return out
			}
		}
		return nil
	case r < opt.LoopFrac+opt.PoisonFrac+opt.UnallocFrac:
		if len(p) < 2 {
			return nil
		}
		// Leak a private-use ASN mid-path.
		out := make(bgp.Path, 0, len(p)+1)
		out = append(out, p[0], asn.ASN(64512+a.rng.Intn(1000)))
		out = append(out, p[1:]...)
		return out
	}
	return nil
}

// AnnouncedPrefixes returns the distinct announced prefixes.
func (c *Collection) AnnouncedPrefixes() []netip.Prefix {
	return append([]netip.Prefix(nil), c.Prefixes...)
}
