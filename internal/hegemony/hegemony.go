// Package hegemony implements the AS hegemony metric (§1.2, Figure 2): the
// likelihood that an AS lies on a path toward a set of prefixes. For each
// vantage point, every AS gets the address-weighted fraction of the VP's
// paths that contain it; the final score is the mean of the per-VP values
// after trimming the top and bottom 10%, which damps the bias of VPs that
// are topologically very near or very far from the AS.
//
// The score is a row operation. A view's records are summed, in the order
// the view lists them, into an AS × VP matrix (Sums); each AS's row is then
// sorted and trimmed. Compute is exactly that. Accumulate keeps a view's
// sorted rows (PerVP), so that Each can score any subset of its VPs — the
// trials of core.Pipeline.Stability — without walking records again. CTI,
// which borrows the trimmed mean, fills Sums of its own.
package hegemony

import (
	"cmp"
	"math/bits"
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

// Sums is a view's per-(AS, VP) sums while a kernel walks its records: an
// AS × VP matrix, with each VP's total weight. Start readies it for a view,
// Run opens a run of one VP's records, Add credits ASes with part of the run,
// and Scores reads each AS's trimmed mean off its row and empties the Sums.
// The zero value is ready for use; a Sums is not safe for concurrent use.
//
// A view's columns are its VPs in first-appearance order and its rows the
// ASes it credits, in first-credit order, so its matrix is no larger than
// the view: 109,326 cells at most over the 102 country views of W05, against
// 512,478 for every record. Pool invariant: between views every cell, mark,
// total, column and row number and selection mark is zero over the slices'
// whole capacity, and no dataset is named. A view undoes its writes through
// its lists of VPs and ASes and its marks: it costs O(records + touched
// cells), never O(ASes × VPs).
type Sums struct {
	asnOf []asn.ASN // the dataset's dense id → ASN column
	pos   []int32   // per dataset VP: 1 + its column, 0 if not in the view
	vps   []int32   // per column: the dataset VP
	rowOf []int32   // per AS id: 1 + its row, 0 if uncredited
	ids   []int32   // per row: the AS id
	// Row r, column p is cell r·stride+p; a view's rows start on a mark word.
	cell   []float64
	stride int
	total  []uint64 // per column
	hit    []uint64 // one bit per cell: credited (see dense)
	// dense: the view is every record, which fills most cells (78 % at
	// W05): rows and columns are the dataset's ASes and VPs as numbered,
	// rows are read whole, and only a weightless run, which still puts its
	// ASes in the result with a 0, marks cells.
	dense      bool
	col        uint // the open run's column
	weightless bool // the open run weighs 0

	order  []int32   // the columns with weight; for the full view by descending total
	vals   []float64 // one row's values
	pairs  []pair    // with their columns
	at     []int32   // Accumulate: per share, its column
	picked []uint64  // Each: one bit per share of a PerVP, set while selected
	upTo   []int32   // 0, 1, 2, …
}

type pair struct {
	share float64
	p     int32 // the VP's column
}

var scratchPool = sync.Pool{New: func() any { return new(Sums) }}

// record returns the k-th record position of a view (nil: every record).
func record(recs []int32, k int) int {
	if recs == nil {
		return k
	}
	return int(recs[k])
}

// Start readies s to sum the view made of the given accepted-record
// positions of ds (nil means every record) and returns its record count.
func (s *Sums) Start(ds *sanitize.Dataset, recs []int32) int { return s.start(ds, recs, false) }

func (s *Sums) start(ds *sanitize.Dataset, recs []int32, dense bool) (n int) {
	if n = len(recs); recs == nil {
		n = ds.Len()
	}
	s.asnOf, s.dense = ds.ASNOf, dense
	s.pos = sanitize.Grow(s.pos, len(ds.VPCountry))
	s.rowOf = sanitize.Grow(s.rowOf, ds.NumAS())
	s.vps, s.ids = s.vps[:0], s.ids[:0]
	s.cell, s.hit = s.cell[:cap(s.cell)], s.hit[:cap(s.hit)]
	if dense {
		s.vps = append(s.vps, s.count(len(ds.VPCountry))...)
		s.ids = append(s.ids, s.count(ds.NumAS())...)
		s.stride = len(s.vps)
	} else {
		for k := 0; k < n; k++ {
			if v := ds.VPIndex(record(recs, k)); s.pos[v] == 0 {
				s.vps = append(s.vps, v)
				s.pos[v] = int32(len(s.vps))
			}
		}
		s.stride = (len(s.vps) + 63) &^ 63
	}
	s.total = sanitize.Grow(s.total, len(s.vps))
	s.reserve(len(s.ids))
	return n
}

// Run opens a run of the view's VP v's records that weighs w in total.
func (s *Sums) Run(v int32, w uint64) {
	s.col, s.weightless = uint(v), w == 0
	if !s.dense {
		s.col = uint(s.pos[v] - 1)
	}
	s.total[s.col] += w
}

// Add credits every AS on ids — a path, or a stretch of one — with x of
// the open run, once where prepending repeats it. An AS credited by a VP
// that carries weight is in the result, even with a 0.
func (s *Sums) Add(ids []int32, x float64) {
	stride, col := uint(s.stride), s.col
	var last int32 = -1
	if s.dense { // the hop loop of every epoch's global view: locals only
		cell, hit, weightless := s.cell, s.hit, s.weightless
		for _, id := range ids {
			if id != last {
				c := uint(id)*stride + col
				cell[c] += x
				if weightless {
					hit[c/64] |= 1 << (c % 64)
				}
				last = id
			}
		}
		return
	}
	for _, id := range ids {
		if id == last {
			continue
		}
		last = id
		r := s.rowOf[id]
		if r == 0 {
			s.ids = append(s.ids, id)
			s.reserve(len(s.ids))
			r = int32(len(s.ids))
			s.rowOf[id] = r
		}
		c := uint(r-1)*stride + col
		s.cell[c] += x
		s.hit[c/64] |= 1 << (c % 64)
	}
}

// reserve makes room for rows rows, doubling the matrix when it grows (up to
// a row for every AS) so that its growth costs O(final size); the marks
// cover every cell.
func (s *Sums) reserve(rows int) {
	if n := rows * s.stride; n > len(s.cell) {
		n = max(n, min(2*len(s.cell), len(s.rowOf)*s.stride))
		s.cell = append(s.cell, make([]float64, n-len(s.cell))...)
	}
	if words := (len(s.cell) + 63) / 64; words > len(s.hit) {
		s.hit = append(s.hit, make([]uint64, words-len(s.hit))...)
	}
}

// Scores returns every credited AS's trimmed mean over the VPs whose records
// carry weight, each value its cell over the VP's total, and empties s. trim
// is as in Compute.
func (s *Sums) Scores(trim float64) Scores {
	if trim < 0 {
		trim = DefaultTrim
	}
	n := s.weighted()
	out := Scores{Hegemony: make(map[asn.ASN]float64, len(s.ids)), VPCount: n}
	for r, id := range s.ids {
		if vals, _ := s.row(r); len(vals) > 0 {
			slices.Sort(vals)
			out.Hegemony[s.asnOf[id]] = trimmedMeanSorted(vals, n, trim)
		}
	}
	s.finish()
	return out
}

// weighted lists the columns that carry weight in s.order and returns how
// many there are. The full view's go by descending total: a row holding one
// weight from every VP that reaches it (a stub's prefixes, which a VP
// reaches whole or not at all) then arrives ascending, sorted in one pass.
func (s *Sums) weighted() int {
	s.order = s.order[:0]
	for p, t := range s.total[:len(s.vps)] {
		if t > 0 {
			s.order = append(s.order, int32(p))
		}
	}
	if s.dense {
		slices.SortFunc(s.order, func(a, b int32) int { return cmp.Compare(s.total[b], s.total[a]) })
	}
	return len(s.order)
}

// row gathers row r's values over the columns that carry weight, in no
// particular order, also paired with their columns (not for the full view,
// which only Compute reads), and clears the row. It needs weighted.
func (s *Sums) row(r int) (vals []float64, pairs []pair) {
	vals, pairs = s.vals[:0], s.pairs[:0]
	base := r * s.stride
	if s.dense {
		row := s.cell[base : base+s.stride]
		for _, p := range s.order {
			if c := base + int(p); row[p] != 0 || s.hit[c/64]&(1<<(c%64)) != 0 {
				vals = append(vals, row[p]/float64(s.total[p]))
			}
		}
		clear(row)
	} else {
		for w := base / 64; w < (base+s.stride)/64; w++ {
			for word := s.hit[w]; word != 0; word &= word - 1 {
				c := w*64 + bits.TrailingZeros64(word)
				if t := s.total[c-base]; t > 0 {
					vals = append(vals, s.cell[c]/float64(t))
					pairs = append(pairs, pair{vals[len(vals)-1], int32(c - base)})
				}
				s.cell[c] = 0
			}
			s.hit[w] = 0
		}
	}
	s.vals, s.pairs = vals, pairs
	return vals, pairs
}

// finish restores the pool invariant once every row is read.
func (s *Sums) finish() {
	for _, v := range s.vps {
		s.pos[v] = 0
	}
	clear(s.total[:len(s.vps)])
	for _, id := range s.ids {
		s.rowOf[id] = 0
	}
	if s.dense { // only weightless runs marked, and no row read cleared them
		clear(s.hit[:(len(s.ids)*s.stride+63)/64])
	}
	s.asnOf = nil
}

// count returns 0, 1, …, n-1.
func (s *Sums) count(n int) []int32 {
	for len(s.upTo) < n {
		s.upTo = append(s.upTo, int32(len(s.upTo)))
	}
	return s.upTo[:n]
}

// addPaths sums the view made of the given accepted-record positions of ds
// (nil means every record, read dense when dense is set): every AS on a
// record's path is credited with the record's prefix weight. A route fans
// out over its origin's prefixes, so consecutive records of one VP mostly
// share a path: their weights are summed first and the path walked once.
// The sums are exact integers (a float64 holds every integer below 2^53; a
// VP's records weigh at most records × 2^32), so how the records happen to
// be ordered cannot show in a cell.
func (s *Sums) addPaths(ds *sanitize.Dataset, recs []int32, dense bool) {
	for k, n := 0, s.start(ds, recs, dense); k < n; {
		i := record(recs, k)
		v, q := ds.VPIndex(i), ds.PathIndex(i)
		var w uint64
		for ; k < n; k++ {
			j := record(recs, k)
			if ds.VPIndex(j) != v || ds.PathIndex(j) != q {
				break
			}
			w += ds.Weight[ds.PrefixIndex(j)]
		}
		s.Run(v, w)
		s.Add(ds.PathIDs(int(q)), float64(w))
	}
}

// Compute calculates hegemony over the given accepted-record positions of
// ds (nil means every record). trim is the per-side trim fraction; negative
// values select DefaultTrim, zero disables trimming (the ablation case).
// It is bit-identical to the map-based reference the property tests keep.
func Compute(ds *sanitize.Dataset, recs []int32, trim float64) Scores {
	s := scratchPool.Get().(*Sums)
	defer scratchPool.Put(s)
	s.addPaths(ds, recs, recs == nil)
	return s.Scores(trim)
}

// PerVP is a view's hegemony state before the trimmed mean: for each AS on
// the view's paths, its row of shares — one per vantage point of the view
// whose paths carry weight and reach it — in ascending order, and for each
// VP the positions of its shares in those rows. A VP's shares depend on
// nothing but its own records, so one PerVP serves every VP subset of the
// view (Each). It is immutable once built and safe for concurrent use.
type PerVP struct {
	asnOf []asn.ASN
	// scored[p]: the prefixes of VP position p (first-appearance order over
	// the view's records) carry weight. Only such VPs count toward the
	// mean's denominator; the others have no shares.
	scored []bool
	// Row r is AS rowID[r] with share[rowOff[r]:rowOff[r+1]]; VP position
	// p's shares are at the positions pairAt[vpOff[p]:vpOff[p+1]].
	rowID, rowOff []int32
	share         []float64
	vpOff, pairAt []int32
}

// VPs returns the number of vantage points in the view, scored or not.
func (pv *PerVP) VPs() int { return len(pv.scored) }

// Accumulate builds the per-VP state of the view made of the given
// accepted-record positions of ds (nil means every record).
func Accumulate(ds *sanitize.Dataset, recs []int32) *PerVP {
	s := scratchPool.Get().(*Sums)
	defer scratchPool.Put(s)
	s.addPaths(ds, recs, false)
	s.weighted()
	marked := 0 // a share for each, but those of VPs without weight
	for _, w := range s.hit[:len(s.ids)*s.stride/64] {
		marked += bits.OnesCount64(w)
	}
	pv := &PerVP{asnOf: ds.ASNOf, scored: make([]bool, len(s.vps)),
		rowID: make([]int32, 0, len(s.ids)), rowOff: make([]int32, 1, len(s.ids)+1),
		share: make([]float64, 0, marked), vpOff: make([]int32, len(s.vps)+1)}
	for p, t := range s.total[:len(s.vps)] {
		pv.scored[p] = t > 0
	}
	s.at = s.at[:0]
	for r, id := range s.ids {
		_, row := s.row(r)
		if len(row) == 0 {
			continue
		}
		slices.SortFunc(row, func(a, b pair) int { return cmp.Compare(a.share, b.share) })
		for _, pr := range row {
			pv.share = append(pv.share, pr.share)
			s.at = append(s.at, pr.p)
			pv.vpOff[pr.p+1]++
		}
		pv.rowID = append(pv.rowID, id)
		pv.rowOff = append(pv.rowOff, int32(len(pv.share)))
	}
	s.finish()

	// Index the shares by VP: offsets from the counts, place each share
	// (which moves the offsets to the ends), and shift them back.
	for p := range pv.scored {
		pv.vpOff[p+1] += pv.vpOff[p]
	}
	pv.pairAt = make([]int32, len(s.at))
	for j, p := range s.at {
		pv.pairAt[pv.vpOff[p]] = int32(j)
		pv.vpOff[p]++
	}
	copy(pv.vpOff[1:], pv.vpOff)
	pv.vpOff[0] = 0
	return pv
}

// Each calls yield once for every AS on a path of the VPs at the given
// distinct positions (nil means every VP of the view) with its hegemony over
// those VPs' records — exactly what Compute returns for them, in no
// particular order — and returns the number of VPs the means are taken over.
// trim is as in Compute.
//
// The selected VPs' share positions are marked in a bitset and the set bits
// walked in order: the rows lie one after another, each ascending, so every
// row's selected shares arrive sorted for the trimmed mean.
func (pv *PerVP) Each(sel []int32, trim float64, yield func(asn.ASN, float64)) int {
	s := scratchPool.Get().(*Sums)
	defer scratchPool.Put(s)
	if trim < 0 {
		trim = DefaultTrim
	}
	if sel == nil {
		sel = s.count(pv.VPs())
	}
	s.picked = sanitize.Grow(s.picked, (len(pv.share)+63)/64)
	vps := 0
	for _, p := range sel {
		if pv.scored[p] {
			vps++
		}
		for _, j := range pv.pairAt[pv.vpOff[p]:pv.vpOff[p+1]] {
			s.picked[j/64] |= 1 << (j % 64)
		}
	}
	vals, r := s.vals[:0], 0
	emit := func() {
		if len(vals) > 0 {
			yield(pv.asnOf[pv.rowID[r]], trimmedMeanSorted(vals, vps, trim))
			vals = vals[:0]
		}
	}
	for w, word := range s.picked {
		s.picked[w] = 0 // restores the pool invariant
		for ; word != 0; word &= word - 1 {
			j := int32(w*64 + bits.TrailingZeros64(word))
			for ; j >= pv.rowOff[r+1]; r++ {
				emit()
			}
			vals = append(vals, pv.share[j])
		}
	}
	emit()
	s.vals = vals
	return vps
}

// Scores is Each into a map.
func (pv *PerVP) Scores(sel []int32, trim float64) Scores {
	s := Scores{Hegemony: make(map[asn.ASN]float64, len(pv.rowID))}
	s.VPCount = pv.Each(sel, trim, func(a asn.ASN, v float64) { s.Hegemony[a] = v })
	return s
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
	// The kept window, less the implicit zeros in front.
	zeros := n - len(vals)
	start := max(lo-zeros, 0)
	var sum float64
	for _, v := range vals[start:max(hi-zeros, start)] {
		sum += v
	}
	return sum / float64(hi-lo)
}
