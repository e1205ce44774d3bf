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
// Collection.Prefixes, Path is a path number for Collection.Path.
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
	// Paths holds every path a Record numbers (see bgp.Paths); its Path,
	// NumPaths and AppendPath are the collection's.
	bgp.Paths
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
	// UnstableFrac is the fraction of prefixes missing from ≥1 daily RIB.
	UnstableFrac float64
	// LoopFrac / PoisonFrac / UnallocFrac are per-record corruption rates.
	LoopFrac    float64
	PoisonFrac  float64
	UnallocFrac float64
}

// days is the number of daily RIBs a built collection spans: the paper's five.
const days = 5

func (o BuildOptions) withDefaults() BuildOptions {
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
	return o
}

// BuildCollection propagates every origin's routes across the world and
// records the best path each vantage point exports, then injects the
// real-world dirt (loops, poisoned paths, unallocated ASNs, day-to-day
// instability) the sanitizer must handle. The draws are seeded from the
// world's seed, offset so they do not repeat the generator's.
func BuildCollection(w *topology.World, opt BuildOptions) *Collection {
	return buildCollection(w, opt, 4*runtime.GOMAXPROCS(0))
}

// buildCollection is BuildCollection with propagation split into the given
// number of contiguous origin ranges (capped at the origins that announce
// anything), propagated in parallel and merged in shard order. The output is
// byte-identical for every shard count and GOMAXPROCS; one shard is the
// sequential baseline.
func buildCollection(w *topology.World, opt BuildOptions, shards int) *Collection {
	opt = opt.withDefaults()
	g := w.Graph
	rng := rand.New(rand.NewSource(w.Config.Seed + 7))
	sp := obs.StartSpan("propagate")
	defer sp.End()

	col := &Collection{VPs: w.VPs, Days: days}

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
	full := uint16(1<<days) - 1
	for i := range col.Stable {
		if rng.Float64() >= opt.UnstableFrac {
			col.Stable[i] = true
			col.DayMask[i] = full
			continue
		}
		mask := uint16(0)
		for d := 0; d < days; d++ {
			if rng.Float64() < 0.7 {
				mask |= 1 << d
			}
		}
		// Flapping means visible at least once and absent at least once.
		if mask == 0 {
			mask = 1
		}
		if mask == full {
			mask &^= 1 << uint(rng.Intn(days))
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
	shards = max(min(shards, len(active)), 1)

	// Per-shard propagation states and route buffers go back on a free
	// list once used: OrderedMap keeps at most workers+1 shards in flight,
	// so the list holds that many of each at peak, however many shards the
	// run splits into. It is local to the call, unlike a sync.Pool, whose
	// victim cache would keep the buffers alive past the next collection.
	g.ASNs() // warm the cache once; workers then only read it
	states := freeList[*propState]{new: func() *propState { return newPropState(g) }}
	// An origin exports at most one route per VP, so a buffer sized for the
	// largest shard's origins × VPs never grows by append.
	most := (len(active) + shards - 1) / shards
	buffers := freeList[*shardRoutes]{new: func() *shardRoutes {
		return &shardRoutes{
			counts: make([]int32, 0, most),
			vpIdxs: make([]int32, 0, most*len(vps)),
			pathOf: make([]int32, 0, most*len(vps)),
		}
	}}

	produce := func(si int) *shardRoutes {
		lo, hi := si*len(active)/shards, (si+1)*len(active)/shards
		st := states.get()
		defer states.put(st)
		out := buffers.get()
		out.reset()
		var hops bgp.Path // one path, before it is stored
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
					hops = appendPath(g, st, v.node, hops[:0])
					l = out.paths.AppendPath(hops)
					st.pathAt[v.node] = l
				}
				out.vpIdxs = append(out.vpIdxs, v.vpIdx)
				out.pathOf = append(out.pathOf, l)
			}
			out.counts = append(out.counts, int32(len(out.vpIdxs)-n0))
		}
		return out
	}

	// The merge runs on this goroutine in strict shard order: number each
	// path at its first route and copy it into col.Paths, fan the route out
	// across the origin's prefixes, inject the per-record anomalies (rng
	// draws stay in record order), and append each record straight onto
	// col.Records.
	//
	// Numbering needs no hashing: a routing tree holds one path per node and
	// every path ends in its origin, so tree paths are pairwise distinct
	// across (origin, VP node), and a mutated path carries a loop, a
	// reserved ASN or a valley, which no tree path does. Only mutated paths
	// can repeat (two records of one route drawing the same corruption);
	// they are rare and deduplicated through mutated.
	an := newAnomalizer(w, rng, opt)
	mutated := map[string]int32{}
	var scratch bgp.Path // a mutated path, before it is numbered
	var nRoutes int64
	var global []int32 // shard-local path number → collection path number
	consume := func(si int, rt *shardRoutes) {
		lo, hi := si*len(active)/shards, (si+1)*len(active)/shards
		// The shards hold equal shares of the origins, seen from much the
		// same vantage points, so the shards merged so far extrapolate to
		// the store's size, mutated paths included. Low-numbered origins
		// have shorter paths: at 4 shards the last one resizes it, once.
		col.Reserve(rt.paths.NumPaths(), len(rt.paths.Hops), int64(si+1), int64(shards))
		if si == 0 {
			// Records scale with prefixes rather than origins, since
			// low-numbered origins announce more of them than the rest.
			const maxEst = 64 << 20
			est := len(rt.vpIdxs) * len(col.Prefixes) / max(hi-lo, 1)
			col.Records = make([]Record, 0, min(est+est/16, maxEst))
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
					global = append(global, col.AppendPath(rt.paths.Path(l)))
				}
				pi := global[l]
				path := col.Path(pi)
				for _, pfx := range pfxs {
					rec := Record{VP: vpIdx, Prefix: pfx, Path: pi}
					var ok bool
					if scratch, ok = an.maybeMutate(scratch[:0], path); ok {
						key := scratch.Key()
						mi, seen := mutated[key]
						if !seen {
							mi = col.AppendPath(scratch)
							mutated[key] = mi
						}
						rec.Path = mi
					}
					recs = append(recs, rec)
				}
			}
		}
		col.Records = recs
		nRoutes += int64(len(rt.vpIdxs))
		buffers.put(rt)
		mShardsDone.Inc()
	}
	par.OrderedMap(shards, produce, consume)

	mPathsPropagated.Add(nRoutes)
	mRecordsBuilt.Add(int64(len(col.Records)))
	sp.AddItems(int64(len(col.Records)), "records")
	return col
}

// shardRoutes is one shard's routes, grouped by origin: counts[k] routes
// belong to the k-th origin of the shard, flattened into vpIdxs/pathOf.
// pathOf numbers the shard's distinct paths in first-appearance order, as
// paths stores them.
type shardRoutes struct {
	counts []int32
	vpIdxs []int32
	pathOf []int32
	paths  bgp.Paths
}

// reset empties the buffers for the next shard, keeping their capacity.
func (rt *shardRoutes) reset() {
	rt.counts, rt.vpIdxs, rt.pathOf = rt.counts[:0], rt.vpIdxs[:0], rt.pathOf[:0]
	rt.paths.Reset()
}

// freeList hands out values put back earlier, or new ones. It is safe for
// concurrent use and holds nothing once its owner drops it.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
	new  func() T
}

func (f *freeList[T]) get() T {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		v := f.free[n-1]
		f.free = f.free[:n-1]
		return v
	}
	return f.new()
}

func (f *freeList[T]) put(v T) {
	f.mu.Lock()
	f.free = append(f.free, v)
	f.mu.Unlock()
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

// maybeMutate draws one record's anomaly verdict and, for a corrupted
// record, appends the corrupted path to dst and returns it with true; dst
// must not share storage with p.
func (a *anomalizer) maybeMutate(dst, p bgp.Path) (bgp.Path, bool) {
	r := a.rng.Float64()
	switch opt := a.opt; {
	case r < opt.LoopFrac:
		if len(p) < 3 {
			return dst, false
		}
		// Re-insert the first hop later in the path: A B A B C.
		dst = append(dst, p[0], p[1], p[0])
		return append(dst, p[1:]...), true
	case r < opt.LoopFrac+opt.PoisonFrac:
		if len(a.stubPool) == 0 {
			return dst, false
		}
		// Insert a stub between two adjacent clique ASes.
		for j := 0; j+1 < len(p); j++ {
			if a.cliqueSet[p[j]] && a.cliqueSet[p[j+1]] && !p.Contains(a.stubPool[0]) {
				dst = append(dst, p[:j+1]...)
				dst = append(dst, a.stubPool[a.rng.Intn(len(a.stubPool))])
				dst = append(dst, p[j+1:]...)
				return dst, !dst.HasNonAdjacentLoop()
			}
		}
		return dst, false
	case r < opt.LoopFrac+opt.PoisonFrac+opt.UnallocFrac:
		if len(p) < 2 {
			return dst, false
		}
		// Leak a private-use ASN mid-path.
		dst = append(dst, p[0], asn.ASN(64512+a.rng.Intn(1000)))
		return append(dst, p[1:]...), true
	}
	return dst, false
}

// AnnouncedPrefixes returns the distinct announced prefixes.
func (c *Collection) AnnouncedPrefixes() []netip.Prefix {
	return append([]netip.Prefix(nil), c.Prefixes...)
}
