package cone

import (
	"countryrank/internal/asn"
	"countryrank/internal/sanitize"
)

// Witnesses is a view's cone state before VPs are chosen: every distinct
// (AS, prefix) membership of the view with the set of vantage points whose
// retained chain toward the prefix contains the AS. A membership holds for a
// VP subset exactly when one of its witnesses is in the subset, so one
// Witnesses serves every VP subset of the view (Each). It is immutable once
// built and safe for concurrent use.
type Witnesses struct {
	asnOf []asn.ASN // the dataset's dense id → ASN column
	vps   int       // vantage points in the view, witnesses or not
	words int       // ⌈vps/64⌉
	// Membership r is AS id[r] holding a prefix of weight w[r], witnessed by
	// the VP positions set in mask[r*words:(r+1)*words]. Positions follow
	// first appearance over the view's records, as in hegemony.PerVP.
	id   []int32
	w    []uint64
	mask []uint64
}

// VPs returns the number of vantage points in the view.
func (ws *Witnesses) VPs() int { return ws.vps }

// Witness builds the memberships of the view made of the given
// accepted-record positions of ds (nil means every record); starts is
// Starts(ds, rels). It materializes what ComputeFrom only stamps, which pays
// off when many VP subsets of one view follow.
func Witness(ds *sanitize.Dataset, recs []int32, starts []int32) *Witnesses {
	// VP positions, 1-based while building so that 0 means "not seen yet".
	pos := make([]int32, len(ds.VPCountry))
	ws := &Witnesses{asnOf: ds.ASNOf}
	each(ds, recs, func(i int) {
		if vp, _, _ := ds.RecordIDs(i); pos[vp] == 0 {
			ws.vps++
			pos[vp] = int32(ws.vps)
		}
	})
	ws.words = (ws.vps + 63) / 64

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	ds.GroupByPrefix(&sc.byPrefix, recs)
	sc.stamp = sanitize.Grow(sc.stamp, ds.NumAS())
	sc.idsUsed = sc.idsUsed[:0]
	for _, p := range sc.byPrefix.Used {
		// stamp[id] is 1 + the last membership of id; it belongs to this
		// prefix when it lies past the memberships of the prefixes before.
		before := int32(len(ws.id))
		for _, i := range sc.byPrefix.Run(p) {
			start := starts[ds.PathIndex(int(i))]
			if start < 0 {
				continue
			}
			vp, _, ids := ds.RecordIDs(int(i))
			bit := pos[vp] - 1
			for _, id := range ids[start:] {
				if sc.stamp[id] <= before {
					if sc.stamp[id] == 0 {
						sc.idsUsed = append(sc.idsUsed, id)
					}
					ws.id = append(ws.id, id)
					ws.w = append(ws.w, ds.Weight[p])
					ws.mask = append(ws.mask, make([]uint64, ws.words)...)
					sc.stamp[id] = int32(len(ws.id))
				}
				ws.mask[int(sc.stamp[id]-1)*ws.words+int(bit>>6)] |= 1 << (bit & 63)
			}
		}
		sc.byPrefix.Cnt[p] = 0 // restore the pool invariant
	}
	for _, id := range sc.idsUsed {
		sc.stamp[id] = 0 // likewise
	}
	return ws
}

// Each calls yield once for every AS with a cone over the records of the VPs
// at the given positions (nil means every VP of the view), with that cone's
// size: exactly ComputeFrom's Addresses for those VPs' records of the view,
// every sum being a uint64, in no particular order.
func (ws *Witnesses) Each(sel []int32, yield func(asn.ASN, uint64)) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.sel = sanitize.Grow(sc.sel, ws.words)
	var all uint64
	if sel == nil {
		all = ^all
	}
	for j := range sc.sel {
		sc.sel[j] = all
	}
	for _, p := range sel {
		sc.sel[p>>6] |= 1 << (p & 63)
	}
	sc.stamp = sanitize.Grow(sc.stamp, len(ws.asnOf))
	sc.addr = sanitize.Grow(sc.addr, len(ws.asnOf))
	sc.idsUsed = sc.idsUsed[:0]
	for r, id := range ws.id {
		for j, m := range ws.mask[r*ws.words:][:ws.words] {
			if m&sc.sel[j] == 0 {
				continue
			}
			if sc.stamp[id] == 0 {
				sc.stamp[id] = 1
				sc.idsUsed = append(sc.idsUsed, id)
			}
			sc.addr[id] += ws.w[r]
			break
		}
	}
	for _, id := range sc.idsUsed {
		size := sc.addr[id]
		sc.stamp[id], sc.addr[id] = 0, 0 // restore the pool invariant
		yield(ws.asnOf[id], size)
	}
}
