// Package hegemony implements the AS hegemony metric (§1.2, Figure 2): the
// likelihood that an AS lies on a path toward a set of prefixes. For each
// vantage point, every AS gets the address-weighted fraction of the VP's
// paths that contain it; the final score is the mean of the per-VP values
// after trimming the top and bottom 10%, which damps the bias of VPs that
// are topologically very near or very far from the AS.
//
// The definition is the kernel's seam: Accumulate builds the per-VP vectors
// of a view (PerVP), Each streams every AS's trimmed mean over any subset of
// its VPs (Scores is Each into a map), and Compute is the two back to back —
// except over every record, whose dense per-VP state it fills in one pass
// over the records as stored. Callers scoring many VP subsets of one view
// (core.Pipeline.Stability) accumulate once.
package hegemony

import (
	"cmp"
	"slices"
	"sync"

	"countryrank/internal/asn"
	"countryrank/internal/sanitize"
)

// DefaultTrim is the fraction trimmed from each end of the per-VP score
// distribution, following Fontugne et al.
const DefaultTrim = 0.10

// Scores holds hegemony values in [0, 1] per AS.
type Scores struct {
	Hegemony map[asn.ASN]float64
	// VPCount is the number of vantage points contributing to the view;
	// each AS's score averages over all of them (zeros included).
	VPCount int
}

// PerVP is a view's hegemony state before the trimmed mean: for each vantage
// point of the view, the ASes on its paths with the address-weighted share of
// its paths containing each. A VP's run depends on nothing but its own
// records, so one PerVP serves every VP subset of the view (Each). Accumulate
// builds one; a kernel that weighs paths its own way and borrows only the
// trimmed mean across VPs (cti) fills one through Reset and AppendVP. It is
// immutable once built and safe for concurrent use.
type PerVP struct {
	asnOf []asn.ASN // the dataset's dense id → ASN column
	// VP position p (first-appearance order over the view's records, the
	// order sanitize.Groups.Used lists) owns ids/shares[off[p]:off[p+1]].
	off    []int32
	ids    []int32
	shares []float64
	// scored[p]: the VP's prefixes carry weight. Only such VPs count toward
	// the mean's denominator; the others have empty runs.
	scored []bool
	// The same pairs a second time, AS-major: row r is AS rowID[r] with
	// rowVP/rowShare[rowOff[r]:rowOff[r+1]], ascending by share. Only
	// Accumulate builds rows (12 bytes a pair); Compute's pooled PerVP scores
	// once and would only pay for them.
	rowID    []int32
	rowOff   []int32
	rowVP    []int32
	rowShare []float64
}

// VPs returns the number of vantage points in the view, scored or not.
func (pv *PerVP) VPs() int { return len(pv.scored) }

// Reset empties pv, keeping its storage, to hold runs over the dense id →
// ASN column asnOf (nil releases the dataset). A PerVP filled through
// AppendVP carries no rows.
func (pv *PerVP) Reset(asnOf []asn.ASN) {
	pv.asnOf = asnOf
	pv.off = append(pv.off[:0], 0)
	pv.ids, pv.shares, pv.scored = pv.ids[:0], pv.shares[:0], pv.scored[:0]
}

// AppendVP adds the view's next vantage point: AS ids[i] has shares[i] of
// its paths. An unscored VP — one whose prefixes carry no weight — brings no
// pairs and does not count toward the mean's denominator.
func (pv *PerVP) AppendVP(ids []int32, shares []float64, scored bool) {
	pv.ids = append(pv.ids, ids...)
	pv.shares = append(pv.shares, shares...)
	pv.scored = append(pv.scored, scored)
	pv.off = append(pv.off, int32(len(pv.ids)))
}

// scratch is the reusable flat working state of the dense kernel. All
// slices are indexed by the dataset's dense ids (or VP indexes) and sized
// lazily; the pool keeps them across calls so steady-state Compute does not
// allocate per-VP maps. Nothing in it escapes a call.
//
// Pool invariant: byVP.Cnt is all-zero, seen all-false, asW, counts and
// picked all-zero between calls; every write is undone via the byVP.Used/
// touched/idsUsed dirty lists or the selection itself. That keeps each call
// O(records + touched entries) rather than O(total ASes + total VPs), which
// matters for stability trials over tiny VP subsets. pv.asnOf is nil between
// calls, so an idle pool pins no dataset. cellW, hit, vpTotal and mean are
// all-zero too: the full view is dense, so computeAll clears every row as it
// reads it, and the marks and totals whole.
type scratch struct {
	// byVP groups the record positions by VP, record order kept inside a VP.
	byVP    sanitize.Groups
	asW     []uint64  // per AS id: weight containing it, for the current VP
	seen    []bool    // per AS id: marker for the current VP
	touched []int32   // AS ids touched by the current VP
	pv      PerVP     // Compute's per-VP runs
	counts  []int32   // per AS id: contributing VPs (then scatter cursor)
	idsUsed []int32   // AS ids scored by any chosen VP
	offsets []int32   // per AS id: start into vals (used ids only)
	vals    []float64 // per-AS value lists after counting-sort; one row's picks
	picked  []uint8   // per VP position: 1 while the VP is selected (rows walk)
	all     []int32   // 0, 1, 2, …: the selection nil stands for

	// The full view's per-VP state, AS-major (computeAll): cell id·VPs+v is
	// the weight of VP v's paths containing AS id, and bit id·VPs+v of hit
	// marks a cell only weightless runs reached.
	cellW   []uint64
	hit     []uint64
	vpTotal []uint64  // per VP: its paths' total weight
	order   []int32   // the VPs with weight, by descending total
	mean    []float64 // per AS id: its score, until it is in the result
}

// allVPs returns the positions of a view's n VPs.
func (sc *scratch) allVPs(n int) []int32 {
	for len(sc.all) < n {
		sc.all = append(sc.all, int32(len(sc.all)))
	}
	return sc.all[:n]
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Compute calculates hegemony over the given accepted-record positions of
// ds (nil means every record). trim is the per-side trim fraction; negative
// values select DefaultTrim, zero disables trimming (the ablation case).
//
// A view is Accumulate followed by Scores(nil, trim) with the per-VP runs
// kept in pooled scratch and no rows built; every record (nil) is
// computeAll. Either is bit-identical to the map-based reference the
// property tests keep.
func Compute(ds *sanitize.Dataset, recs []int32, trim float64) Scores {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if recs == nil {
		return sc.computeAll(ds, trim)
	}
	sc.accumulate(ds, recs, &sc.pv)
	s := sc.pv.scores(sc, nil, trim)
	sc.pv.Reset(nil)
	return s
}

// Accumulate builds the per-VP state of the view made of the given
// accepted-record positions of ds (nil means every record), in both orders.
func Accumulate(ds *sanitize.Dataset, recs []int32) *PerVP {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	pv := new(PerVP)
	sc.accumulate(ds, recs, pv)
	pv.buildRows(sc)
	return pv
}

// Each calls yield once for every AS on a path of the VPs at the given
// distinct positions (nil means every VP of the view) with its hegemony over
// those VPs' records — exactly what Compute returns for them, in no
// particular order — and returns the number of VPs the means are taken over.
// trim is as in Compute.
func (pv *PerVP) Each(sel []int32, trim float64, yield func(asn.ASN, float64)) int {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return pv.each(sc, sel, trim, func(int) {}, yield)
}

// Scores is Each into a map.
func (pv *PerVP) Scores(sel []int32, trim float64) Scores {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return pv.scores(sc, sel, trim)
}

func (pv *PerVP) scores(sc *scratch, sel []int32, trim float64) Scores {
	var s Scores
	s.VPCount = pv.each(sc, sel, trim,
		func(n int) { s.Hegemony = make(map[asn.ASN]float64, n) },
		func(a asn.ASN, v float64) { s.Hegemony[a] = v })
	return s
}

// accumulate fills pv, reusing its slices, with one run per VP of the view.
func (sc *scratch) accumulate(ds *sanitize.Dataset, recs []int32, pv *PerVP) {
	ds.GroupByVP(&sc.byVP, recs)
	sc.asW = sanitize.Grow(sc.asW, ds.NumAS())
	sc.seen = sanitize.Grow(sc.seen, ds.NumAS())

	pv.Reset(ds.ASNOf)
	for _, v := range sc.byVP.Used {
		// asW[id] becomes the weight of the VP's paths containing id. A
		// route fans out over its origin's prefixes, so consecutive records
		// of one VP mostly share a path index: their weights are summed
		// first and the path's hops walked once. The sums are exact
		// integers, so how the records happen to be ordered — whether equal
		// paths sit next to each other or not — cannot show in asW.
		sc.touched = sc.touched[:0]
		var total uint64
		for run := sc.byVP.Run(v); len(run) > 0; {
			first := int(run[0])
			q := ds.PathIndex(first)
			var w uint64
			for len(run) > 0 && ds.PathIndex(int(run[0])) == q {
				w += ds.Weight[ds.PrefixIndex(int(run[0]))]
				run = run[1:]
			}
			total += w
			_, _, ids := ds.RecordIDs(first)
			// Count each AS once per path even if prepending survived.
			var last int32 = -1
			for j, id := range ids {
				if j > 0 && id == last {
					continue
				}
				if !sc.seen[id] {
					sc.seen[id] = true
					sc.asW[id] = 0
					sc.touched = append(sc.touched, id)
				}
				sc.asW[id] += w
				last = id
			}
		}
		if total > 0 {
			ft := float64(total)
			for _, id := range sc.touched {
				pv.ids = append(pv.ids, id)
				pv.shares = append(pv.shares, float64(sc.asW[id])/ft)
			}
		}
		pv.scored = append(pv.scored, total > 0)
		pv.off = append(pv.off, int32(len(pv.ids)))
		for _, id := range sc.touched { // restore the pool invariant
			sc.seen[id] = false
			sc.asW[id] = 0
		}
		sc.byVP.Cnt[v] = 0 // likewise
	}
}

// computeAll is Compute over every record of ds. Records are stored
// origin-major, so grouping them by VP first (accumulate) sends every path
// lookup to a cold line; instead the records are walked once in stored order
// into the AS × VP matrix, summing consecutive records of one VP and one
// path as accumulate does, and each AS's per-VP values are then read off its
// row. The full view's matrix is dense (two thirds of the cells at W05), so
// visiting every row costs little beyond the cells a view would touch anyway.
func (sc *scratch) computeAll(ds *sanitize.Dataset, trim float64) Scores {
	if trim < 0 {
		trim = DefaultTrim
	}
	nVP, nAS := len(ds.VPCountry), ds.NumAS()
	sc.cellW = sanitize.Grow(sc.cellW, nAS*nVP)
	sc.hit = sanitize.Grow(sc.hit, (nAS*nVP+63)/64)
	sc.vpTotal = sanitize.Grow(sc.vpTotal, nVP)
	for i, n := 0, ds.Len(); i < n; {
		v, q := ds.VPIndex(i), ds.PathIndex(i)
		var w uint64
		for ; i < n && ds.VPIndex(i) == v && ds.PathIndex(i) == q; i++ {
			w += ds.Weight[ds.PrefixIndex(i)]
		}
		sc.vpTotal[v] += w
		// Count each AS once per path even if prepending survived.
		var last int32 = -1
		for _, id := range ds.PathIDs(int(q)) {
			if id != last {
				c := uint(int(id)*nVP + int(v))
				sc.cellW[c] += w
				if w == 0 { // a weightless run still puts the AS in the result
					sc.hit[c/64] |= 1 << (c % 64)
				}
				last = id
			}
		}
	}

	// The mean is over the VPs whose paths carry weight, and each row is read
	// in their order of descending total: a row with one weight from every VP
	// that reaches it (a stub's prefixes, which a VP reaches whole or not at
	// all; two thirds of the rows at W05) then arrives ascending, and the sort
	// finds it sorted in one pass.
	sc.order = sanitize.Grow(sc.order, nVP)[:0]
	for v, t := range sc.vpTotal {
		if t > 0 {
			sc.order = append(sc.order, int32(v))
		}
	}
	slices.SortFunc(sc.order, func(a, b int32) int { return cmp.Compare(sc.vpTotal[b], sc.vpTotal[a]) })
	sc.vals = sanitize.Grow(sc.vals, nVP) // no row is longer
	sc.mean = sanitize.Grow(sc.mean, nAS)
	sc.idsUsed = sanitize.Grow(sc.idsUsed, nAS)[:0]
	for id := 0; id < nAS; id++ {
		row, vals := sc.cellW[id*nVP:][:nVP], sc.vals[:0]
		for _, v := range sc.order {
			c := uint(id*nVP + int(v))
			if row[v] != 0 || sc.hit[c/64]&(1<<(c%64)) != 0 {
				vals = append(vals, float64(row[v])/float64(sc.vpTotal[v]))
			}
		}
		clear(row) // restore the pool invariant
		if len(vals) > 0 {
			slices.Sort(vals)
			sc.mean[id] = trimmedMeanSorted(vals, len(sc.order), trim)
			sc.idsUsed = append(sc.idsUsed, int32(id))
		}
	}
	s := Scores{Hegemony: make(map[asn.ASN]float64, len(sc.idsUsed)), VPCount: len(sc.order)}
	for _, id := range sc.idsUsed {
		s.Hegemony[ds.ASNOf[id]] = sc.mean[id]
		sc.mean[id] = 0 // likewise
	}
	clear(sc.hit)
	clear(sc.vpTotal)
	return s
}

// rowsCrossover: a selection is gathered from the presorted rows when its
// VPs hold at least 1/rowsCrossover of the view's pairs. Walking rows costs
// the view's pairs whatever is selected and sorts nothing; the VP-major
// gather costs the selection's pairs and sorts them. DESIGN.md "Per-view
// trial state" has the sweep (flat from 4 to 16).
const rowsCrossover = 4

// walksRows decides the gatherer for a selection holding the given number of
// the view's pairs.
func (pv *PerVP) walksRows(pairs int) bool {
	return pv.rowOff != nil && pairs*rowsCrossover >= len(pv.ids)
}

// each is Each on borrowed scratch. Before the first yield it tells sized
// how many ASes it is about to yield (at most, when it walks rows). Either
// gatherer hands visit each seen AS's values over the selected VPs in
// ascending order, so the sums — and every bit of the result — do not depend
// on which one ran or on the order VPs are visited in.
func (pv *PerVP) each(sc *scratch, sel []int32, trim float64, sized func(int), yield func(asn.ASN, float64)) int {
	if trim < 0 {
		trim = DefaultTrim
	}
	vps, pairs := 0, 0
	if sel == nil {
		sel = sc.allVPs(pv.VPs())
	}
	for _, p := range sel {
		if pv.scored[p] {
			vps++
		}
		pairs += int(pv.off[p+1] - pv.off[p]) // none for an unscored VP
	}
	visit := func(id int32, vals []float64) { yield(pv.asnOf[id], trimmedMeanSorted(vals, vps, trim)) }
	if pv.walksRows(pairs) {
		sized(len(pv.rowID))
		pv.walkRows(sc, sel, visit)
	} else {
		pv.sortRuns(sc, sel, pairs, sized, visit)
	}
	return vps
}

// sortRuns counting-sorts the chosen VPs' (id, share) pairs into per-AS value
// runs and sorts each run.
func (pv *PerVP) sortRuns(sc *scratch, sel []int32, pairs int, sized func(int), visit func(id int32, vals []float64)) {
	sc.counts = sanitize.Grow(sc.counts, len(pv.asnOf))
	sc.offsets = sanitize.Grow(sc.offsets, len(pv.asnOf))
	sc.idsUsed = sc.idsUsed[:0]
	for _, p := range sel {
		for _, id := range pv.ids[pv.off[p]:pv.off[p+1]] {
			if sc.counts[id] == 0 {
				sc.idsUsed = append(sc.idsUsed, id)
			}
			sc.counts[id]++
		}
	}
	var off int32
	for _, id := range sc.idsUsed {
		sc.offsets[id] = off
		off += sc.counts[id]
		sc.counts[id] = 0 // becomes the scatter cursor
	}
	sc.vals = sanitize.Grow(sc.vals, pairs)
	for _, p := range sel {
		for j := pv.off[p]; j < pv.off[p+1]; j++ {
			id := pv.ids[j]
			sc.vals[sc.offsets[id]+sc.counts[id]] = pv.shares[j]
			sc.counts[id]++
		}
	}
	sized(len(sc.idsUsed))
	for _, id := range sc.idsUsed {
		vs := sc.vals[sc.offsets[id]:][:sc.counts[id]]
		slices.Sort(vs)
		sc.counts[id] = 0 // restore the pool invariant
		visit(id, vs)
	}
}

// walkRows marks the chosen VPs and filters each presorted row by the marks:
// what is left of a row is already ascending.
func (pv *PerVP) walkRows(sc *scratch, sel []int32, visit func(id int32, vals []float64)) {
	sc.picked = sanitize.Grow(sc.picked, pv.VPs())
	sc.vals = sanitize.Grow(sc.vals, pv.VPs()) // no row is longer
	for _, p := range sel {
		sc.picked[p] = 1
	}
	for r, id := range pv.rowID {
		n := 0
		for j := pv.rowOff[r]; j < pv.rowOff[r+1]; j++ {
			sc.vals[n] = pv.rowShare[j]
			n += int(sc.picked[pv.rowVP[j]]) // keeps the value when picked, without a branch
		}
		if n > 0 {
			visit(id, sc.vals[:n])
		}
	}
	for _, p := range sel {
		sc.picked[p] = 0 // restore the pool invariant
	}
}

// buildRows lays pv's pairs out AS-major, each row ascending by share.
func (pv *PerVP) buildRows(sc *scratch) {
	sc.counts = sanitize.Grow(sc.counts, len(pv.asnOf))
	sc.offsets = sanitize.Grow(sc.offsets, len(pv.asnOf))
	for _, id := range pv.ids {
		if sc.counts[id] == 0 {
			pv.rowID = append(pv.rowID, id)
		}
		sc.counts[id]++
	}
	pv.rowOff = make([]int32, len(pv.rowID)+1)
	for r, id := range pv.rowID {
		sc.offsets[id] = pv.rowOff[r]
		pv.rowOff[r+1] = pv.rowOff[r] + sc.counts[id]
		sc.counts[id] = 0 // becomes the scatter cursor
	}
	type pair struct {
		share float64
		vp    int32
	}
	rows := make([]pair, len(pv.ids))
	for p := range pv.scored {
		for j := pv.off[p]; j < pv.off[p+1]; j++ {
			id := pv.ids[j]
			rows[sc.offsets[id]+sc.counts[id]] = pair{pv.shares[j], int32(p)}
			sc.counts[id]++
		}
	}
	pv.rowVP = make([]int32, len(rows))
	pv.rowShare = make([]float64, len(rows))
	for r, id := range pv.rowID {
		sc.counts[id] = 0 // restore the pool invariant
		lo, hi := pv.rowOff[r], pv.rowOff[r+1]
		slices.SortFunc(rows[lo:hi], func(a, b pair) int { return cmp.Compare(a.share, b.share) })
		for j := lo; j < hi; j++ {
			pv.rowVP[j], pv.rowShare[j] = rows[j].vp, rows[j].share
		}
	}
}

// trimmedMeanSorted pads the sorted vals with zeros up to n (VPs that never
// saw the AS), trims floor(trim*n) entries from each end, and averages the
// rest. The padding stays implicit: the padded distribution is
// (n - len(vals)) zeros followed by vals, and summing in that order keeps the
// float result bit-identical to a materialized pad (leading zeros add
// exactly nothing).
func trimmedMeanSorted(vals []float64, n int, trim float64) float64 {
	if n <= 0 {
		return 0
	}
	k := int(trim * float64(n))
	if k == 0 && trim > 0 && n >= 3 {
		// Figure 2's worked example drops one value from each end even with
		// only three VPs; follow that convention for small views.
		k = 1
	}
	lo, hi := k, n-k
	if lo >= hi {
		// Degenerate tiny-VP case: fall back to the plain mean.
		lo, hi = 0, n
	}
	zeros := n - len(vals)
	start := lo - zeros
	if start < 0 {
		start = 0
	}
	end := hi - zeros
	if end < start {
		end = start // the kept window is all implicit zeros
	}
	var sum float64
	for _, v := range vals[start:end] {
		sum += v
	}
	return sum / float64(hi-lo)
}
