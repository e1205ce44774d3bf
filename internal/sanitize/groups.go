package sanitize

// Groups is the cone kernel's reusable scratch for counting-sorting
// accepted-record positions by prefix, the dataset's dense key it works per.
// A call costs O(records + keys touched), never O(keys): only touched Cnt
// entries are written.
//
// Pool invariant: Cnt is all-zero between calls. Grouping leaves Cnt[k] at
// run k's length; the kernel that consumed run k writes Cnt[k] back to 0.
type Groups struct {
	Cnt   []int32 // per key: run length (the scatter cursor while grouping)
	Off   []int32 // per key: run start in Order (used keys only)
	Used  []int32 // keys with records, in first-appearance order
	Order []int32 // record positions grouped by key, request order kept inside a run
}

// GroupByPrefix groups the requested accepted-record positions (nil means
// every record) by prefix.
func (d *Dataset) GroupByPrefix(g *Groups, recs []int32) {
	col, keys := d.recPrefix, len(d.Weight)
	n := len(recs)
	if recs == nil {
		n = len(col)
	}
	g.Cnt, g.Off, g.Order = Grow(g.Cnt, keys), Grow(g.Off, keys), Grow(g.Order, n)
	g.Used = g.Used[:0]
	keyAt := func(j int) (pos, key int32) {
		if recs == nil {
			return int32(j), col[j]
		}
		return recs[j], col[recs[j]]
	}
	for j := 0; j < n; j++ {
		_, k := keyAt(j)
		if g.Cnt[k] == 0 {
			g.Used = append(g.Used, k)
		}
		g.Cnt[k]++
	}
	var off int32
	for _, k := range g.Used {
		g.Off[k] = off
		off += g.Cnt[k]
		g.Cnt[k] = 0 // becomes the scatter cursor
	}
	for j := 0; j < n; j++ {
		i, k := keyAt(j)
		g.Order[g.Off[k]+g.Cnt[k]] = i
		g.Cnt[k]++
	}
}

// Run returns key k's record positions.
func (g *Groups) Run(k int32) []int32 { return g.Order[g.Off[k]:][:g.Cnt[k]] }

// Grow returns pooled scratch slice s resized to n. A reallocation is zeroed
// by make; a resize within capacity exposes only entries the kernels' reset
// discipline already zeroed, so a pool invariant of the "all-zero between
// calls" kind holds across either path.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
