package snapshot

// Durable last-good snapshot store. Every published snapshot can be saved
// as one generation file under a directory; on boot, rankd warm-starts from
// the newest generation that passes validation and serves it (marked stale)
// while the first real build runs in the background.
//
// On-disk format (version 2, file snap-<epoch 16 hex digits>.csnap):
//
//	magic    [8]byte  "CRSNAP1\n"
//	u32      header length (little-endian, capped)
//	header   JSON: version, epoch, digest, max_top_n, degraded, saved_unix,
//	         and the section count
//	u32      CRC32 (IEEE) of the header bytes
//	sections section count times:
//	           u8  kind (1 = country page, 2 = top variants,
//	                     3 = country rank vectors, 4 = top rank vector)
//	           u8  key length, key bytes ("AU", "ccg")
//	           u32 body count (1 for a country, len(variants) for a top,
//	               4 for country ranks — CCI/CCN/AHI/AHN order — and 1 for
//	               a top rank vector)
//	           per body: u32 length, body bytes
//	           u32 CRC32 of the section bytes (kind through last body)
//	magic    [8]byte  "CRSNEND\n"
//
// Kind 1/2 bodies are the preserialized JSON pages. Kind 3/4 bodies are
// binary rank vectors (u32 entry count, then per entry: u32 ASN, u64
// float64 value bits, u16 name length, name bytes — all little-endian):
// the structured data the drift diff engine consumes, persisted so
// cmd/rankdiff can diff two generations through the exact code path the
// live supervisor uses, never by re-parsing served JSON. A file of any
// other version is rejected as corrupt, like any other unreadable
// generation (the format had a version 1 without rank sections; no such
// file exists any more).
//
// Three layers reject a bad file: structural parsing (truncation, caps,
// trailer), the per-section CRCs (bit rot), and a full content check — the
// loader rebuilds the snapshot through the same entity/digest code path as
// Assemble and requires the recomputed digest to equal the header's, so a
// file whose CRCs were forged along with its bodies still cannot smuggle
// wrong bytes into the serving path.
//
// Writes are crash-safe: the file is assembled under a .tmp name, fsynced,
// and atomically renamed into place; the directory is fsynced afterwards so
// the rename itself survives power loss. A crash mid-write leaves only a
// .tmp file, which the loader ignores and the next prune removes.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"countryrank/internal/asn"
	"countryrank/internal/obs"
)

var (
	mSnapSaves = obs.NewCounter("countryrank_rankd_snapshot_saves_total",
		"snapshot generations persisted to the durable store")
	mSnapLoadRejects = obs.NewCounter("countryrank_rankd_snapshot_load_rejects_total",
		"persisted generations rejected at warm start (corrupt, truncated, or digest mismatch)")
	mSnapPruned = obs.NewCounter("countryrank_rankd_snapshot_pruned_total",
		"persisted generations removed by keep-last-K pruning")
)

const (
	persistMagic   = "CRSNAP1\n"
	persistTrailer = "CRSNEND\n"
	persistVersion = 2

	sectionCountry      = 1
	sectionTop          = 2
	sectionCountryRanks = 3
	sectionTopRanks     = 4

	// maxHeaderLen and maxBodyLen bound the allocations a hostile or
	// corrupted length field can demand before any CRC is checked.
	maxHeaderLen = 1 << 16
	maxBodyLen   = 1 << 28
)

// persistHeader is the JSON header of one generation file.
type persistHeader struct {
	Version   int    `json:"version"`
	Epoch     int64  `json:"epoch"`
	Digest    string `json:"digest"`
	MaxTopN   int    `json:"max_top_n"`
	Degraded  bool   `json:"degraded"`
	SavedUnix int64  `json:"saved_unix"`
	Sections  int    `json:"sections"`
}

// DefaultKeepGenerations is how many on-disk generations a Persister
// retains when the caller passes keep <= 0.
const DefaultKeepGenerations = 3

// A Persister owns one durable snapshot directory: Save writes a new
// generation and prunes old ones, LoadLatest warm-starts from the newest
// valid generation.
type Persister struct {
	dir  string
	keep int
}

// NewPersister prepares dir (creating it if needed) for keep-last-K
// generation storage.
func NewPersister(dir string, keep int) (*Persister, error) {
	if keep <= 0 {
		keep = DefaultKeepGenerations
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: persist dir: %w", err)
	}
	return &Persister{dir: dir, keep: keep}, nil
}

// Dir returns the store's directory.
func (p *Persister) Dir() string { return p.dir }

// Generations lists the on-disk generation files newest-first (no
// validation; LoadFile rejects bad ones). cmd/rankdiff uses it to pick
// the two most recent epochs of a -snapshot-dir.
func (p *Persister) Generations() ([]string, error) { return p.generations() }

// GenerationPath returns where the given epoch's generation file lives
// (whether or not it exists).
func (p *Persister) GenerationPath(epoch int64) string { return genPath(p.dir, epoch) }

func genPath(dir string, epoch int64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.csnap", uint64(epoch)))
}

// Save persists s as generation s.Epoch (tmp+rename, fsynced) and prunes
// generations beyond the keep limit. It returns the final path.
func (p *Persister) Save(s *Snapshot) (string, error) {
	path := genPath(p.dir, s.Epoch)
	tmp := path + ".tmp"
	if err := writeSnapshotFile(tmp, s); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("snapshot: persist rename: %w", err)
	}
	syncDir(p.dir)
	mSnapSaves.Inc()
	p.prune()
	return path, nil
}

// LoadLatest returns the newest valid persisted snapshot, skipping (and
// counting) corrupt or truncated generations on the way down. It returns
// (nil, skipped, nil) when no valid generation exists; an error only when
// the directory itself cannot be read. The returned snapshot is marked
// Stale with SavedAt carrying the original persist time.
func (p *Persister) LoadLatest() (*Snapshot, int, error) {
	paths, err := p.generations()
	if err != nil {
		return nil, 0, err
	}
	skipped := 0
	for _, path := range paths {
		s, err := LoadFile(path)
		if err != nil {
			mSnapLoadRejects.Inc()
			skipped++
			continue
		}
		return s, skipped, nil
	}
	return nil, skipped, nil
}

// generations lists generation files newest-first.
func (p *Persister) generations() ([]string, error) {
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: persist dir: %w", err)
	}
	var paths []string
	for _, e := range ents {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".csnap") {
			paths = append(paths, filepath.Join(p.dir, name))
		}
	}
	// Epochs are fixed-width hex, so lexical order is numeric order.
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	return paths, nil
}

// prune removes generations beyond the keep limit plus any abandoned .tmp
// files. Best-effort: serving never depends on pruning succeeding.
func (p *Persister) prune() {
	paths, err := p.generations()
	if err != nil {
		return
	}
	for _, path := range paths[min(p.keep, len(paths)):] {
		if os.Remove(path) == nil {
			mSnapPruned.Inc()
		}
	}
	if ents, err := os.ReadDir(p.dir); err == nil {
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tmp") {
				os.Remove(filepath.Join(p.dir, e.Name()))
			}
		}
	}
}

// writeSnapshotFile serializes s to path and fsyncs it.
func writeSnapshotFile(path string, s *Snapshot) error {
	ccs := s.CountryCodes()
	tops := s.TopMetrics()
	sections := len(ccs) + len(tops)
	if s.HasRanks() {
		sections += len(s.ranks) + len(s.topRanks)
	}
	hdr := persistHeader{
		Version: persistVersion, Epoch: s.Epoch, Digest: s.Digest,
		MaxTopN: s.maxTopN, Degraded: s.Degraded,
		SavedUnix: time.Now().Unix(), Sections: sections,
	}
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("snapshot: persist header: %w", err)
	}

	buf := make([]byte, 0, 1<<16)
	buf = append(buf, persistMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdrJSON)))
	buf = append(buf, hdrJSON...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(hdrJSON))
	appendSection := func(kind byte, key string, bodies [][]byte) {
		start := len(buf)
		buf = append(buf, kind, byte(len(key)))
		buf = append(buf, key...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(bodies)))
		for _, b := range bodies {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
			buf = append(buf, b...)
		}
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	}
	for _, cc := range ccs {
		appendSection(sectionCountry, cc, [][]byte{s.countries[cc].body})
	}
	for _, m := range tops {
		bodies := make([][]byte, len(s.tops[m]))
		for i, v := range s.tops[m] {
			bodies[i] = v.body
		}
		appendSection(sectionTop, m, bodies)
	}
	if s.HasRanks() {
		for _, cc := range unionKeys(s.ranks, nil) {
			bodies := make([][]byte, len(countryMetricKeys))
			for i, metric := range countryMetricKeys {
				bodies[i] = encodeRankVec(nil, s.ranks[cc][metric])
			}
			appendSection(sectionCountryRanks, cc, bodies)
		}
		for _, m := range unionKeys(s.topRanks, nil) {
			appendSection(sectionTopRanks, m, [][]byte{encodeRankVec(nil, s.topRanks[m])})
		}
	}
	buf = append(buf, persistTrailer...)

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("snapshot: persist open: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: persist write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: persist sync: %w", err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// errCorrupt wraps every validation failure LoadFile can hit, so callers
// can distinguish "bad file" from I/O errors if they care.
var errCorrupt = errors.New("snapshot: corrupt generation file")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(format, args...))
}

// LoadFile parses, validates, and reconstructs one persisted generation.
// The returned snapshot is marked Stale and carries SavedAt from the file
// header; its entities and digest are rebuilt from the stored bodies, and
// the rebuild must reproduce the header's digest or the file is rejected.
func LoadFile(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cur := raw
	take := func(n int) ([]byte, error) {
		if len(cur) < n {
			return nil, corruptf("%s: truncated (want %d bytes, have %d)", path, n, len(cur))
		}
		b := cur[:n]
		cur = cur[n:]
		return b, nil
	}
	takeU32 := func() (uint32, error) {
		b, err := take(4)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b), nil
	}

	if b, err := take(len(persistMagic)); err != nil || string(b) != persistMagic {
		return nil, corruptf("%s: bad magic", path)
	}
	hdrLen, err := takeU32()
	if err != nil {
		return nil, err
	}
	if hdrLen > maxHeaderLen {
		return nil, corruptf("%s: header length %d over cap", path, hdrLen)
	}
	hdrJSON, err := take(int(hdrLen))
	if err != nil {
		return nil, err
	}
	hdrCRC, err := takeU32()
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(hdrJSON) != hdrCRC {
		return nil, corruptf("%s: header CRC mismatch", path)
	}
	var hdr persistHeader
	if err := json.Unmarshal(hdrJSON, &hdr); err != nil {
		return nil, corruptf("%s: header JSON: %v", path, err)
	}
	if hdr.Version != persistVersion {
		return nil, corruptf("%s: unsupported version %d", path, hdr.Version)
	}
	if hdr.Sections < 0 || hdr.MaxTopN <= 0 {
		return nil, corruptf("%s: implausible header (sections %d, max_top_n %d)", path, hdr.Sections, hdr.MaxTopN)
	}

	s := &Snapshot{
		Epoch:     hdr.Epoch,
		Degraded:  hdr.Degraded,
		Stale:     true,
		SavedAt:   time.Unix(hdr.SavedUnix, 0),
		countries: map[string]*entity{},
		tops:      map[string][]*entity{},
		maxTopN:   hdr.MaxTopN,
		// A file always carries its rank sections, so HasRanks holds even
		// for a snapshot with no countries.
		ranks:    map[string]map[string]RankVec{},
		topRanks: map[string]RankVec{},
	}
	for i := 0; i < hdr.Sections; i++ {
		secStart := cur
		meta, err := take(2)
		if err != nil {
			return nil, err
		}
		kind, keyLen := meta[0], int(meta[1])
		key, err := take(keyLen)
		if err != nil {
			return nil, err
		}
		nBodies, err := takeU32()
		if err != nil {
			return nil, err
		}
		if nBodies == 0 || nBodies > uint32(maxBodyLen/4) {
			return nil, corruptf("%s: section %d body count %d implausible", path, i, nBodies)
		}
		bodies := make([][]byte, nBodies)
		for j := range bodies {
			bLen, err := takeU32()
			if err != nil {
				return nil, err
			}
			if bLen > maxBodyLen {
				return nil, corruptf("%s: section %d body %d length %d over cap", path, i, j, bLen)
			}
			b, err := take(int(bLen))
			if err != nil {
				return nil, err
			}
			// Copy out of the file buffer so the snapshot owns its bytes.
			bodies[j] = slices.Clone(b)
		}
		secLen := len(secStart) - len(cur)
		secCRC, err := takeU32()
		if err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(secStart[:secLen]) != secCRC {
			return nil, corruptf("%s: section %d (%s) CRC mismatch", path, i, key)
		}
		switch kind {
		case sectionCountry:
			if len(bodies) != 1 {
				return nil, corruptf("%s: country section %q has %d bodies", path, key, len(bodies))
			}
			s.countries[string(key)] = newEntity(bodies[0])
		case sectionTop:
			vs := make([]*entity, len(bodies))
			for j, b := range bodies {
				vs[j] = newEntity(b)
			}
			s.tops[string(key)] = vs
		case sectionCountryRanks:
			if len(bodies) != len(countryMetricKeys) {
				return nil, corruptf("%s: country-ranks section %q has %d bodies", path, key, len(bodies))
			}
			vm := make(map[string]RankVec, len(countryMetricKeys))
			for j, metric := range countryMetricKeys {
				v, err := decodeRankVec(bodies[j])
				if err != nil {
					return nil, corruptf("%s: country-ranks section %q metric %s: %v", path, key, metric, err)
				}
				vm[metric] = v
			}
			s.ranks[string(key)] = vm
		case sectionTopRanks:
			if len(bodies) != 1 {
				return nil, corruptf("%s: top-ranks section %q has %d bodies", path, key, len(bodies))
			}
			v, err := decodeRankVec(bodies[0])
			if err != nil {
				return nil, corruptf("%s: top-ranks section %q: %v", path, key, err)
			}
			s.topRanks[string(key)] = v
		default:
			return nil, corruptf("%s: section %d has unknown kind %d", path, i, kind)
		}
	}
	if b, err := take(len(persistTrailer)); err != nil || string(b) != persistTrailer {
		return nil, corruptf("%s: missing trailer (truncated file)", path)
	}
	if len(cur) != 0 {
		return nil, corruptf("%s: %d trailing bytes after trailer", path, len(cur))
	}

	// Content check: the rebuilt digest must reproduce the header's. This
	// reuses Assemble's digest path, so it also re-derives every ETag.
	s.finish()
	if s.Digest != hdr.Digest {
		return nil, corruptf("%s: content digest %s does not match header %s",
			path, shortDigest(s.Digest), shortDigest(hdr.Digest))
	}
	return s, nil
}

// encodeRankVec appends one rank vector's binary encoding: u32 entry
// count, then per entry u32 ASN, u64 value bits, u16 name length, name
// bytes. Float values travel as raw bits so a loaded vector diffs
// bit-identically to the one that was saved.
func encodeRankVec(dst []byte, v RankVec) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
	for _, e := range v {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.ASN))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Value))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Name)))
		dst = append(dst, e.Name...)
	}
	return dst
}

// decodeRankVec parses encodeRankVec's output, rejecting truncation and
// trailing bytes (the section CRC already caught bit rot; this catches
// structural nonsense).
func decodeRankVec(b []byte) (RankVec, error) {
	if len(b) < 4 {
		return nil, errors.New("rank vector truncated before count")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if n > uint32(maxBodyLen/14) {
		return nil, fmt.Errorf("rank vector entry count %d implausible", n)
	}
	v := make(RankVec, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 14 {
			return nil, fmt.Errorf("rank vector truncated at entry %d", i)
		}
		e := RankEntry{
			ASN:   asn.ASN(binary.LittleEndian.Uint32(b)),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
		}
		nameLen := int(binary.LittleEndian.Uint16(b[12:]))
		b = b[14:]
		if len(b) < nameLen {
			return nil, fmt.Errorf("rank vector name truncated at entry %d", i)
		}
		e.Name = string(b[:nameLen])
		b = b[nameLen:]
		v = append(v, e)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("rank vector has %d trailing bytes", len(b))
	}
	return v, nil
}

// shortDigest trims a digest for log lines; tolerant of short test values.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	if d == "" {
		return "(empty)"
	}
	return d
}

// epochFromPath recovers the generation number from a file name; used by
// tests and error paths.
func epochFromPath(path string) (int64, bool) {
	name := filepath.Base(path)
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".csnap") {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len("snap-"):len(name)-len(".csnap")], 16, 64)
	if err != nil {
		return 0, false
	}
	return int64(v), true
}
