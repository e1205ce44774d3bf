package routing

import (
	"fmt"
	"io"
	"net/netip"
	"os"
	"slices"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/mrt"
	"countryrank/internal/obs"
	"countryrank/internal/par"
	"countryrank/internal/topology"
	"countryrank/internal/vp"
)

// countingReader tracks bytes consumed from an MRT stream.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// scatterRecords stably distributes src into dst grouped by ascending
// key(r), with nKeys bounding the key space, and returns the group offsets:
// key k's records are dst[start[k]:start[k+1]]. Two chained passes implement
// an LSD radix sort over a composite key; one pass is a stable group-by that
// replaces a map plus sort.Slice when the keys are dense indexes.
func scatterRecords(src, dst []Record, nKeys int, key func(Record) int32) (start []int32) {
	start = make([]int32, nKeys+1)
	for _, r := range src {
		start[key(r)+1]++
	}
	for k := 0; k < nKeys; k++ {
		start[k+1] += start[k]
	}
	next := slices.Clone(start[:nKeys])
	for _, r := range src {
		k := key(r)
		dst[next[k]] = r
		next[k]++
	}
	return start
}

// collectorRecords returns one collector's records by ascending VP, record
// order kept inside a VP. The first export groups all of Records by VP in one
// counting pass and the collection keeps the grouping, so each dump after it
// costs only its own records, whichever goroutine writes it.
func (c *Collection) collectorRecords(collector string) []Record {
	c.byVPOnce.Do(func() {
		c.byVP = make([]Record, len(c.Records))
		c.vpStart = scatterRecords(c.Records, c.byVP, c.VPs.Len(), func(r Record) int32 { return r.VP })
	})
	var n int32
	for i, v := range c.VPs.VPs() {
		if v.Collector == collector {
			n += c.vpStart[i+1] - c.vpStart[i]
		}
	}
	own := make([]Record, 0, n)
	for i, v := range c.VPs.VPs() {
		if v.Collector == collector {
			own = append(own, c.byVP[c.vpStart[i]:c.vpStart[i+1]]...)
		}
	}
	return own
}

// ExportMRT writes the collection's base-day RIB for one collector as a
// TABLE_DUMP_V2 stream: the same interchange format RouteViews and RIS
// publish, so downstream tooling can consume simulated dumps unchanged.
func ExportMRT(w io.Writer, c *Collection, collector string, timestamp uint32) error {
	coll, ok := c.VPs.Collector(collector)
	if !ok {
		return fmt.Errorf("routing: unknown collector %q", collector)
	}

	// Peer table: the collector's VPs, in VP-index order. peerOf maps the
	// dense VP index to its peer index, -1 for other collectors' VPs.
	peerOf := make([]int32, c.VPs.Len())
	var peers []mrt.Peer
	for i := 0; i < c.VPs.Len(); i++ {
		v := c.VPs.VP(i)
		if v.Collector != collector {
			peerOf[i] = -1
			continue
		}
		peerOf[i] = int32(len(peers))
		peers = append(peers, mrt.Peer{BGPID: v.Addr, Addr: v.Addr, AS: v.AS})
	}

	mw := mrt.NewWriter(w, timestamp)
	if err := mw.WritePeerIndexTable(coll.ID, collector, peers); err != nil {
		return err
	}

	// The collector's records arrive by ascending VP; a stable counting pass
	// by prefix index on top — the second digit of an LSD radix sort — leaves
	// them by ascending prefix with ascending VP inside each group, and each
	// prefix group becomes one RIB record.
	byVP := c.collectorRecords(collector)
	keep := make([]Record, len(byVP))
	scatterRecords(byVP, keep, len(c.Prefixes), func(r Record) int32 { return r.Prefix })

	// entries and its parallel AS_SEQUENCE segments reuse scratch across
	// groups; segScratch is fully built before entries reference it, since
	// growing it mid-group would leave earlier ASPath slices pointing at
	// the retired array.
	var entries []mrt.RIBEntry
	var segScratch []bgp.Segment
	for s := 0; s < len(keep); {
		p := keep[s].Prefix
		e := s
		for e < len(keep) && keep[e].Prefix == p {
			e++
		}
		segScratch = segScratch[:0]
		for _, r := range keep[s:e] {
			segScratch = append(segScratch, bgp.Segment{
				Type: bgp.SegmentSequence,
				ASNs: c.Paths[r.Path],
			})
		}
		entries = entries[:0]
		for i, r := range keep[s:e] {
			var seq bgp.ASPath
			if len(segScratch[i].ASNs) > 0 {
				seq = segScratch[i : i+1 : i+1]
			}
			entries = append(entries, mrt.RIBEntry{
				PeerIndex:    uint16(peerOf[r.VP]),
				OriginatedAt: timestamp,
				Attrs: bgp.AttrSet{
					Origin: bgp.OriginIGP,
					ASPath: seq,
				},
			})
		}
		if err := mw.WriteRIB(c.Prefixes[p], entries); err != nil {
			return err
		}
		s = e
	}
	return mw.Flush()
}

// blocks is an append-only sequence that grows without copying. How much a
// stream holds is unknown until it ends, and a buffer grown by append copies
// everything already decoded again at every doubling, which was most of what
// an import allocated. Here a full block is left where it is and the next
// one is twice as long, up to maxBlock, so a short stream stays small and a
// long one wastes at most one block's tail.
type blocks[T any] struct {
	blks [][]T
	n    int
}

const minBlock, maxBlock = 64, 8192

func (b *blocks[T]) push(v T) {
	last := len(b.blks) - 1
	if last < 0 || len(b.blks[last]) == cap(b.blks[last]) {
		c := minBlock
		if last >= 0 {
			c = min(2*cap(b.blks[last]), maxBlock)
		}
		b.blks = append(b.blks, make([]T, 0, c))
		last++
	}
	b.blks[last] = append(b.blks[last], v)
	b.n++
}

// importStream is the per-stream partial of a parallel ImportMRT. Records
// carry the global VP index but stream-local prefix and path indexes; the
// merge remaps them in stream order, which keeps the result independent of
// worker scheduling. paths is run-length deduplicated per peer, not fully
// interned — full hash-consing happens once, in the merge — so the hot
// decode loop stays free of intern-table hashing.
type importStream struct {
	// prefixes holds one entry per RIB record read, in stream order; a prefix
	// a stream repeats is deduplicated with every other in the merge.
	prefixes blocks[importPrefix]
	records  blocks[Record]
	paths    blocks[bgp.Path]
	// named is the world VP index of each known peer of each peer table read.
	named []int32
	// rejects counts entries of peers outside the world, dropped during
	// decode, and folds into ImportStats in the merge; bytes is the stream's
	// wire size. err is the error that stopped the stream, which fails the
	// import.
	rejects int64
	bytes   int64
	err     error
}

// importPrefix is a RIB record's prefix and the origin of its first entry
// that has one; originSet tells an AS0 origin from none seen.
type importPrefix struct {
	prefix    netip.Prefix
	origin    asn.ASN
	originSet bool
}

func importOneStream(stream io.Reader, byAddr map[netip.Addr]int32) (out importStream) {
	cr := &countingReader{r: stream}
	defer func() { out.bytes = cr.n }()
	r := mrt.NewReader(cr)
	// vpOf resolves a stream peer index to the world VP index (-1 unknown);
	// it is built once per peer table so the hot loop never hashes peering
	// addresses. last memoizes each peer's most recent path: exports emit
	// prefixes of one origin back to back, so consecutive RIB records usually
	// repeat the previous path per peer, and a slice compare collapses the
	// run. Retained paths are sliced out of an arena block; a path that does
	// not fit starts a new block, and the headers keep the old ones alive.
	type memo struct {
		id   int32
		path bgp.Path
	}
	var vpOf []int32
	var last []memo
	var flat, arena bgp.Path
	for {
		rec, err := r.Scan()
		if err == io.EOF {
			return out
		}
		if err != nil {
			out.err = err
			return out
		}
		if rec.PeerIndexTable != nil {
			peers := rec.PeerIndexTable.Peers
			vpOf = vpOf[:0]
			last = last[:0]
			for _, p := range peers {
				gi, known := byAddr[p.Addr]
				if !known {
					gi = -1
				} else {
					out.named = append(out.named, gi)
				}
				vpOf = append(vpOf, gi)
				last = append(last, memo{id: -1})
			}
			continue
		}
		rib := rec.RIB
		pi := int32(out.prefixes.n)
		pfx := importPrefix{prefix: rib.Prefix}
		for _, e := range rib.Entries {
			if int(e.PeerIndex) >= len(vpOf) {
				out.err = fmt.Errorf("routing: peer index %d out of range", e.PeerIndex)
				return out
			}
			vpIdx := vpOf[e.PeerIndex]
			if vpIdx < 0 {
				out.rejects++
				continue
			}
			flat = e.Attrs.ASPath.AppendFlat(flat[:0])
			if o, ok := flat.Origin(); ok && !pfx.originSet {
				pfx.origin, pfx.originSet = o, true
			}
			lp := &last[e.PeerIndex]
			if lp.id < 0 || !flat.Equal(lp.path) {
				if len(arena)+len(flat) > cap(arena) {
					arena = make(bgp.Path, 0, max(min(2*cap(arena), 8*maxBlock), minBlock, len(flat)))
				}
				start := len(arena)
				arena = append(arena, flat...)
				lp.id, lp.path = int32(out.paths.n), arena[start:len(arena):len(arena)]
				out.paths.push(lp.path)
			}
			out.records.push(Record{VP: vpIdx, Prefix: pi, Path: lp.id})
		}
		out.prefixes.push(pfx)
	}
}

// ImportOptions is empty: MRT ingest has one mode, strict, in which any
// corrupt record fails the import. The type stays only because the
// benchmark's traced import passes it to ImportMRTFiles.
type ImportOptions struct{}

// ImportStats accounts what an import delivered and dropped: the coverage
// report a partial collection is labelled with.
type ImportStats struct {
	// Records is the number of RIB entries imported.
	Records int64
	// VPsNamed is how many of the world's VPs the PEER_INDEX_TABLEs read
	// listed: the VPs the dumps cover, whether or not one owns a record.
	VPsNamed int
	// Rejects is entries dropped during decode: those of peers outside the
	// world.
	Rejects int64
}

// ImportMRT parses TABLE_DUMP_V2 streams (one per collector) back into a
// Collection over the given world's VPs, the only part of w it reads. VPs
// are matched by peering address; entries from unknown peers are dropped. Streams decode
// concurrently and merge in stream order, so the result is identical at any
// GOMAXPROCS. Paths are hash-consed into a shared table; the origin of each
// prefix is the first one observed in stream order, with "not yet seen"
// tracked explicitly so an AS0 origin is preserved rather than overwritten.
// Stability defaults to true for every prefix (MRT carries a single day).
// A stream that fails to decode fails the import, and the error names it by
// index.
func ImportMRT(w *topology.World, streams []io.Reader) (*Collection, ImportStats, error) {
	return importMRT(w, streams, nil)
}

// ImportMRTFiles is ImportMRT over dump files: each file is one stream,
// read once, front to back, and a failing stream's error names its file.
func ImportMRTFiles(w *topology.World, paths []string, _ ImportOptions) (*Collection, ImportStats, error) {
	streams := make([]io.Reader, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, ImportStats{}, err
		}
		defer f.Close()
		streams = append(streams, f)
	}
	return importMRT(w, streams, paths)
}

// importMRT is ImportMRT with names[i] naming stream i in errors (nil: by
// index).
func importMRT(w *topology.World, streams []io.Reader, names []string) (*Collection, ImportStats, error) {
	sp := obs.StartSpan("mrt-import")
	defer sp.End()
	ds := sp.Child("decode")
	ds.AddItems(0, "bytes")
	byAddr := make(map[netip.Addr]int32, w.VPs.Len()) // VPs by peering address
	for i := 0; i < w.VPs.Len(); i++ {
		byAddr[w.VPs.VP(i).Addr] = int32(i)
	}
	parts := make([]importStream, len(streams))
	par.ForEach(len(streams), func(si int) {
		parts[si] = importOneStream(streams[si], byAddr)
		ds.AddItems(parts[si].bytes, "")
	})
	ds.End()
	for si := range parts {
		if err := parts[si].err; err != nil {
			name := fmt.Sprintf("stream %d", si)
			if names != nil {
				name = names[si]
			}
			return nil, ImportStats{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	ms := sp.Child("merge")
	defer ms.End()
	col, stats := mergeImportParts(w.VPs, parts)
	ms.AddItems(stats.Records, "records")
	sp.AddItems(stats.Records, "records")
	return col, stats, nil
}

// mergeImportParts folds decoded stream partials into a Collection in part
// order. Prefixes and paths are numbered serially, part by part — the one
// step whose order shows in the result — and sized once from what the parts
// hold; rewriting each part's records from stream-local to global indexes
// then fans out, every part into its own range of Records.
func mergeImportParts(vps *vp.Set, parts []importStream) (*Collection, ImportStats) {
	// remap is where a part's records go in Records and what its stream-local
	// prefix and path indexes become.
	type remap struct {
		start        int64
		prefix, path []int32
	}
	var stats ImportStats
	var nPaths int
	named := make([]bool, vps.Len())
	maps := make([]remap, len(parts))
	for si := range parts {
		p := &parts[si]
		for _, v := range p.named {
			if !named[v] {
				named[v] = true
				stats.VPsNamed++
			}
		}
		maps[si].start = stats.Records
		stats.Records += int64(p.records.n)
		stats.Rejects += p.rejects
		nPaths += p.paths.n
	}

	col := &Collection{VPs: vps, Days: 1}
	prefixIdx := map[netip.Prefix]int32{}
	it := bgp.NewInterner(nPaths)
	var originSet []bool
	for si := range parts {
		p := &parts[si]
		pfxMap := make([]int32, 0, p.prefixes.n)
		for _, blk := range p.prefixes.blks {
			for _, lp := range blk {
				gi, ok := prefixIdx[lp.prefix]
				if !ok {
					gi = int32(len(col.Prefixes))
					prefixIdx[lp.prefix] = gi
					col.Prefixes = append(col.Prefixes, lp.prefix)
					col.Origin = append(col.Origin, 0)
					originSet = append(originSet, false)
				}
				if lp.originSet && !originSet[gi] {
					col.Origin[gi] = lp.origin
					originSet[gi] = true
				}
				pfxMap = append(pfxMap, gi)
			}
		}
		// Stream-local paths are already owned copies, so the global table
		// can adopt them without recopying.
		pathMap := make([]int32, 0, p.paths.n)
		for _, blk := range p.paths.blks {
			for _, path := range blk {
				pathMap = append(pathMap, it.InternOwned(path))
			}
		}
		p.prefixes, p.paths = blocks[importPrefix]{}, blocks[bgp.Path]{} // numbered: let them go before Records is allocated
		maps[si].prefix, maps[si].path = pfxMap, pathMap
	}
	col.Records = make([]Record, stats.Records)
	par.ForEach(len(parts), func(si int) {
		m := maps[si]
		out := col.Records[m.start:]
		for _, blk := range parts[si].records.blks {
			for i, r := range blk {
				out[i] = Record{VP: r.VP, Prefix: m.prefix[r.Prefix], Path: m.path[r.Path]}
			}
			out = out[len(blk):]
		}
	})
	col.Paths = it.Paths()
	col.Stable = make([]bool, len(col.Prefixes))
	for i := range col.Stable {
		col.Stable[i] = true
	}
	return col, stats
}
