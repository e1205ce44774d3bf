package routing

import (
	"bytes"
	"encoding/binary"
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
	set := c.World.VPs
	c.byVPOnce.Do(func() {
		c.byVP = make([]Record, len(c.Records))
		c.vpStart = scatterRecords(c.Records, c.byVP, set.Len(), func(r Record) int32 { return r.VP })
	})
	var n int32
	for i, v := range set.VPs() {
		if v.Collector == collector {
			n += c.vpStart[i+1] - c.vpStart[i]
		}
	}
	own := make([]Record, 0, n)
	for i, v := range set.VPs() {
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
	set := c.World.VPs
	coll, ok := set.Collector(collector)
	if !ok {
		return fmt.Errorf("routing: unknown collector %q", collector)
	}

	// Peer table: the collector's VPs, in VP-index order. peerOf maps the
	// dense VP index to its peer index, -1 for other collectors' VPs.
	peerOf := make([]int32, set.Len())
	var peers []mrt.Peer
	for i := 0; i < set.Len(); i++ {
		v := set.VP(i)
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

// ExportUpdatesMRT writes the BGP4MP update stream one collector would have
// recorded during day (1 ≤ day < c.Days): for every VP of the collector, an
// UPDATE announcing each prefix that appeared relative to day-1 and
// withdrawing each prefix that vanished. Combined with the day-0 RIB this
// reconstructs any day's table, the way RouteViews consumers replay
// rib + updates archives.
func ExportUpdatesMRT(w io.Writer, c *Collection, collector string, day int, timestamp uint32) error {
	if day <= 0 || day >= c.Days {
		return fmt.Errorf("routing: day %d outside 1..%d", day, c.Days-1)
	}
	set := c.World.VPs
	if _, ok := set.Collector(collector); !ok {
		return fmt.Errorf("routing: unknown collector %q", collector)
	}

	mw := mrt.NewWriter(w, timestamp)
	collectorIP := netip.AddrFrom4([4]byte{192, 0, 2, 1})

	// Each changed prefix of each of the collector's records, by ascending
	// VP, becomes one UPDATE.
	order := c.collectorRecords(collector)
	var raw []byte
	for _, r := range order {
		v := set.VP(int(r.VP))
		was := c.PresentOn(r.Prefix, day-1)
		is := c.PresentOn(r.Prefix, day)
		if was == is {
			continue
		}
		var u bgp.Update
		pfx := c.Prefixes[r.Prefix]
		switch {
		case is && pfx.Addr().Is4():
			u = bgp.Update{
				ASPath:    bgp.SequencePath(c.Paths[r.Path]),
				NextHop:   v.Addr,
				Announced: []netip.Prefix{pfx},
			}
		case is:
			u = bgp.Update{
				ASPath:      bgp.SequencePath(c.Paths[r.Path]),
				V6NextHop:   v6NextHop,
				V6Announced: []netip.Prefix{pfx},
			}
		case pfx.Addr().Is4():
			u = bgp.Update{Withdrawn: []netip.Prefix{pfx}}
		default:
			u = bgp.Update{V6Withdrawn: []netip.Prefix{pfx}}
		}
		var err error
		raw, err = u.AppendWire(raw[:0])
		if err != nil {
			return fmt.Errorf("routing: update: %w", err)
		}
		if err := mw.WriteBGP4MP(v.AS, 6447, v.Addr, collectorIP, raw); err != nil {
			return err
		}
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
	// rejects counts entries dropped during decode (unknown peers, bad peer
	// indexes); bytes is the stream's wire size. Both fold into the obs
	// counters once per stream during the merge. resyncs / skippedBytes
	// account the reader's skip-and-resync recoveries in degraded mode.
	rejects      int64
	bytes        int64
	resyncs      int64
	skippedBytes int64
	err          error
}

// importPrefix is a RIB record's prefix and the origin of its first entry
// that has one; originSet tells an AS0 origin from none seen.
type importPrefix struct {
	prefix    netip.Prefix
	origin    asn.ASN
	originSet bool
}

func importOneStream(stream io.Reader, byAddr map[netip.Addr]int32, opt ImportOptions) (out importStream) {
	cr := &countingReader{r: stream}
	defer func() { out.bytes = cr.n }()
	r := mrt.NewReader(cr)
	if opt.SkipCorrupt {
		r.SetResync(true)
		defer func() {
			out.resyncs = r.Resyncs()
			out.skippedBytes = r.SkippedBytes()
		}()
	}
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
			out.rejects++
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
		if rib == nil {
			continue
		}
		pi := int32(out.prefixes.n)
		pfx := importPrefix{prefix: rib.Prefix}
		for _, e := range rib.Entries {
			if int(e.PeerIndex) >= len(vpOf) {
				// In degraded mode a bad peer index (e.g. the PIT itself was
				// corrupt and skipped) drops the entry, not the stream.
				out.rejects++
				if opt.SkipCorrupt {
					continue
				}
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

// ImportOptions tunes MRT ingest. The zero value is strict: any corrupt
// record aborts the import.
type ImportOptions struct {
	// SkipCorrupt turns on degraded-mode ingest: corrupt records are skipped
	// via the reader's resync scan, entries referencing unknown peer indexes
	// are dropped, and the import completes with the losses accounted in
	// ImportStats instead of returning an error. It also disables chunked
	// parallel file decode (resync recovery must see the whole stream).
	SkipCorrupt bool
	// ChunkTarget is the per-chunk byte target ImportMRTFiles splits files
	// into for parallel decode. 0 selects 4 MiB.
	ChunkTarget int64
}

// ImportStats accounts what a degraded import lost: the coverage report a
// partial collection is labelled with.
type ImportStats struct {
	// Records is the number of RIB entries imported.
	Records int64
	// VPsNamed is how many of the world's VPs the PEER_INDEX_TABLEs read
	// listed: the VPs the dumps cover, whether or not one owns a record.
	VPsNamed int
	// Rejects is entries dropped during decode (unknown peers, bad indexes).
	Rejects int64
	// Resyncs is corrupt records skipped; SkippedBytes the bytes discarded.
	Resyncs      int64
	SkippedBytes int64
}

// ImportMRT parses TABLE_DUMP_V2 streams (one per collector) back into a
// Collection attached to the given world. VPs are matched by peering
// address; entries from unknown peers are dropped. Streams decode
// concurrently and merge in stream order, so the result is identical at any
// GOMAXPROCS. Paths are hash-consed into a shared table; the origin of each
// prefix is the first one observed in stream order, with "not yet seen"
// tracked explicitly so an AS0 origin is preserved rather than overwritten.
// Stability defaults to true for every prefix (MRT carries a single day).
func ImportMRT(w *topology.World, streams []io.Reader) (*Collection, error) {
	col, _, err := ImportMRTWith(w, streams, ImportOptions{})
	return col, err
}

// ImportMRTWith is ImportMRT with explicit options and loss accounting. With
// SkipCorrupt set it is the degraded-mode ingest path: corrupt records cost
// coverage, not the run.
func ImportMRTWith(w *topology.World, streams []io.Reader, opt ImportOptions) (*Collection, ImportStats, error) {
	sp := obs.StartSpan("mrt-import")
	defer sp.End()
	chunks := make([]chunk, len(streams))
	for i, s := range streams {
		chunks[i].r = s
	}
	return importChunks(sp, w, chunks, opt)
}

// chunk is one unit of parallel decode work: a whole stream, or a section of
// a dump file.
type chunk struct {
	r io.Reader
	// pitReplayed is the PIT bytes prepended to a non-leading chunk,
	// deducted from the byte metrics after decode.
	pitReplayed int64
}

// ImportMRTFiles is ImportMRT over dump files, decoding each file's record
// sections in parallel: a sequential header-only pre-scan (mrt.IndexSections)
// cuts the file at record boundaries into ~ChunkTarget-byte chunks, and each
// chunk is decoded by its own worker with the PEER_INDEX_TABLE record
// replayed in front. Chunks merge in (file, offset) order — the stream order
// a sequential decode would have produced — so the collection is identical
// to ImportMRT of the same files at any GOMAXPROCS. Files that cannot be
// pre-scanned (corrupt headers, a leading record that is not a PIT) and all
// SkipCorrupt imports are decoded as one chunk, like a stream.
func ImportMRTFiles(w *topology.World, paths []string, opt ImportOptions) (*Collection, ImportStats, error) {
	if opt.ChunkTarget <= 0 {
		opt.ChunkTarget = 4 << 20
	}
	sp := obs.StartSpan("mrt-import")
	defer sp.End()
	is := sp.Child("index")
	var chunks []chunk
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			is.End()
			return nil, ImportStats{}, err
		}
		defer f.Close()
		if chunks, err = appendFileChunks(chunks, f, opt); err != nil {
			is.End()
			return nil, ImportStats{}, err
		}
	}
	is.AddItems(int64(len(chunks)), "chunks")
	is.End()
	return importChunks(sp, w, chunks, opt)
}

// appendFileChunks cuts one dump file into chunks.
func appendFileChunks(chunks []chunk, f *os.File, opt ImportOptions) ([]chunk, error) {
	sections := indexFile(f, opt)
	if len(sections) < 3 {
		// Nothing to parallelize (or the pre-scan failed): decode the
		// whole file as one sequential stream, which owns all error
		// handling and resync recovery.
		_, err := f.Seek(0, io.SeekStart)
		return append(chunks, chunk{r: f}), err
	}
	pitRaw := make([]byte, sections[0].End-sections[0].Start)
	if _, err := f.ReadAt(pitRaw, sections[0].Start); err != nil {
		return nil, err
	}
	chunks = append(chunks, chunk{
		r: io.NewSectionReader(f, sections[0].Start, sections[1].End-sections[0].Start),
	})
	for _, s := range sections[2:] {
		chunks = append(chunks, chunk{
			r: io.MultiReader(bytes.NewReader(pitRaw),
				io.NewSectionReader(f, s.Start, s.End-s.Start)),
			pitReplayed: int64(len(pitRaw)),
		})
	}
	return chunks, nil
}

// importChunks decodes the chunks on the worker pool and merges them in
// chunk order.
func importChunks(sp *obs.Span, w *topology.World, chunks []chunk, opt ImportOptions) (*Collection, ImportStats, error) {
	ds := sp.Child("decode")
	ds.AddItems(0, "bytes")
	byAddr := vpsByAddr(w)
	parts := make([]importStream, len(chunks))
	par.ForEach(len(chunks), func(ci int) {
		parts[ci] = importOneStream(chunks[ci].r, byAddr, opt)
		parts[ci].bytes -= chunks[ci].pitReplayed
		ds.AddItems(parts[ci].bytes, "")
	})
	ds.End()
	ms := sp.Child("merge")
	defer ms.End()
	col, stats, err := mergeImportParts(w, parts)
	ms.AddItems(stats.Records, "records")
	sp.AddItems(stats.Records, "records")
	return col, stats, err
}

// indexFile pre-scans one dump file into sections, or returns nil when the
// file must be decoded sequentially: degraded-mode imports (resync recovery
// is a whole-stream affair), unscannable files, or files whose first record
// is not the PEER_INDEX_TABLE every chunk needs replayed.
func indexFile(f *os.File, opt ImportOptions) []mrt.Section {
	if opt.SkipCorrupt {
		return nil
	}
	if st, err := f.Stat(); err == nil && st.Size() <= opt.ChunkTarget {
		return nil // one chunk at most after the PIT: nothing to cut
	}
	sections, err := mrt.IndexSections(f, opt.ChunkTarget)
	if err != nil || len(sections) == 0 {
		return nil
	}
	var hdr [12]byte
	if _, err := f.ReadAt(hdr[:], sections[0].Start); err != nil {
		return nil
	}
	typ := binary.BigEndian.Uint16(hdr[4:])
	sub := binary.BigEndian.Uint16(hdr[6:])
	if typ != mrt.TypeTableDumpV2 || sub != mrt.SubtypePeerIndexTable {
		return nil
	}
	return sections
}

func vpsByAddr(w *topology.World) map[netip.Addr]int32 {
	set := w.VPs
	byAddr := make(map[netip.Addr]int32, set.Len())
	for i := 0; i < set.Len(); i++ {
		byAddr[set.VP(i).Addr] = int32(i)
	}
	return byAddr
}

// mergeImportParts folds decoded stream partials into a Collection in part
// order. Prefixes and paths are numbered serially, part by part — the one
// step whose order shows in the result — and sized once from what the parts
// hold; rewriting each part's records from stream-local to global indexes
// then fans out, every part into its own range of Records.
func mergeImportParts(w *topology.World, parts []importStream) (*Collection, ImportStats, error) {
	// remap is where a part's records go in Records and what its stream-local
	// prefix and path indexes become.
	type remap struct {
		start        int64
		prefix, path []int32
	}
	var stats ImportStats
	var nPaths int
	named := make([]bool, w.VPs.Len())
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
		stats.Resyncs += p.resyncs
		stats.SkippedBytes += p.skippedBytes
		nPaths += p.paths.n
		if p.err != nil {
			return nil, stats, p.err
		}
	}

	col := &Collection{World: w, Days: 1}
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
	return col, stats, nil
}
