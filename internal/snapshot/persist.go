package snapshot

// Durable last-good snapshot store. Every published snapshot can be saved
// as one generation file under a directory; on boot, rankd warm-starts from
// the newest generation that passes validation and serves it (marked stale)
// while the first real build runs in the background.
//
// On-disk format (file snap-<epoch 16 hex digits>.csnap, little-endian):
//
//	magic    [8]byte  "CRSNAP1\n"
//	u32      header length (capped)
//	header   JSON: version, epoch, digest, max_top_n, degraded, saved_unix,
//	         and the section count
//	u32      CRC32 (IEEE) of the header bytes
//	sections section count times:
//	           u8  kind (1 = one country's rank vectors, 2 = one global
//	                     top's rank vector)
//	           u8  key length, key bytes ("AU", "ccg")
//	           u32 body count: 5 for a country (display name, then the
//	               CCI/CCN/AHI/AHN vectors), 1 for a top
//	           per body: u32 length, body bytes
//	           u32 CRC32 of the section bytes (kind through last body)
//	magic    [8]byte  "CRSNEND\n"
//
// A vector body is: u16 name length, name bytes, u32 entry count, then per
// entry u32 ASN, u64 float64 value bits, u16 name length, name bytes, u8
// country length, country bytes. A file holds the snapshot's rank vectors
// and nothing rendered from them: the loader seals them (snapshot.go) into
// the pages, ETags and digest, exactly as Assemble does. A file of any
// other version is rejected as corrupt, like any other unreadable
// generation, so a change to this layout or to a byte the page encoder
// emits must bump persistVersion.
//
// Three layers reject a bad file: structural parsing (truncation, caps,
// counts checked against the bytes that remain, trailer), the per-section
// CRCs (bit rot), and a full content check — the digest of the pages
// sealed from the loaded vectors must equal the header's, so a file whose
// CRCs were forged along with its vectors still cannot put wrong bytes
// into the serving path, the history pages or a diff.
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
	"sort"
	"strings"
	"time"

	"countryrank/internal/asn"
	"countryrank/internal/countries"
	"countryrank/internal/obs"
)

var (
	mSnapSaves = obs.NewCounter("countryrank_rankd_snapshot_saves_total",
		"snapshot generations persisted to the durable store")
	mSnapLoadRejects = obs.NewCounter("countryrank_rankd_snapshot_load_rejects_total",
		"persisted generations rejected at warm start (corrupt, truncated, or digest mismatch)")
)

const (
	persistMagic   = "CRSNAP1\n"
	persistTrailer = "CRSNEND\n"
	persistVersion = 3

	sectionCountryRanks = 1
	sectionTopRanks     = 2

	// maxHeaderLen caps the header. Every other length or count in a file
	// is checked against the bytes that remain before anything is allocated
	// for it; minEntryLen is a vector entry with both strings empty.
	maxHeaderLen = 1 << 16
	minEntryLen  = 4 + 8 + 2 + 1
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

// Generations lists the store's generation files newest-first.
func (p *Persister) Generations() ([]string, error) { return Generations(p.dir) }

// Generations lists dir's generation files newest-first (no validation;
// LoadFile rejects bad ones). It creates nothing: a missing directory is an
// error. cmd/rankdiff uses it to pick the two most recent epochs of a
// -snapshot-dir.
func Generations(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: persist dir: %w", err)
	}
	var paths []string
	for _, e := range ents {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".csnap") {
			paths = append(paths, filepath.Join(dir, name))
		}
	}
	// Epochs are fixed-width hex, so lexical order is numeric order.
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	return paths, nil
}

// GenerationPath returns where the given epoch's generation file lives
// under dir (whether or not it exists).
func GenerationPath(dir string, epoch int64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.csnap", uint64(epoch)))
}

// Save persists s as generation s.Epoch (tmp+rename, fsynced) and prunes
// generations beyond the keep limit. It returns the final path.
func (p *Persister) Save(s *Snapshot) (string, error) {
	path := GenerationPath(p.dir, s.Epoch)
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
	paths, err := p.Generations()
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

// prune removes generations beyond the keep limit plus any abandoned .tmp
// files. Best-effort: serving never depends on pruning succeeding.
func (p *Persister) prune() {
	paths, err := p.Generations()
	if err != nil {
		return
	}
	for _, path := range paths[min(p.keep, len(paths)):] {
		os.Remove(path)
	}
	if ents, err := os.ReadDir(p.dir); err == nil {
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tmp") {
				os.Remove(filepath.Join(p.dir, e.Name()))
			}
		}
	}
}

// encodeSnapshot renders s's generation file: its rank vectors under a
// header carrying its digest.
func encodeSnapshot(s *Snapshot, savedUnix int64) []byte {
	ccs := unionKeys(s.ranks.countries, nil)
	tops := unionKeys(s.ranks.tops, nil)
	// A struct of integers, strings and a bool: Marshal cannot fail.
	hdrJSON, _ := json.Marshal(persistHeader{
		Version: persistVersion, Epoch: s.Epoch, Digest: s.Digest,
		MaxTopN: s.maxTopN, Degraded: s.Degraded,
		SavedUnix: savedUnix, Sections: len(ccs) + len(tops),
	})
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, persistMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdrJSON)))
	buf = append(buf, hdrJSON...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(hdrJSON))
	for _, cc := range ccs {
		cr := s.ranks.countries[cc]
		bodies := [][]byte{[]byte(cr.name)}
		for _, v := range cr.vecs {
			bodies = append(bodies, encodeRankVec(nil, v))
		}
		buf = appendSection(buf, sectionCountryRanks, cc, bodies...)
	}
	for _, m := range tops {
		buf = appendSection(buf, sectionTopRanks, m, encodeRankVec(nil, s.ranks.tops[m]))
	}
	return append(buf, persistTrailer...)
}

func appendSection(buf []byte, kind byte, key string, bodies ...[]byte) []byte {
	start := len(buf)
	buf = append(buf, kind, byte(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(bodies)))
	for _, b := range bodies {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
		buf = append(buf, b...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// writeSnapshotFile serializes s to path and fsyncs it.
func writeSnapshotFile(path string, s *Snapshot) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("snapshot: persist open: %w", err)
	}
	if _, err := f.Write(encodeSnapshot(s, time.Now().Unix())); err != nil {
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

// LoadFile reads, validates and reconstructs one persisted generation. The
// returned snapshot is marked Stale and carries SavedAt from the file
// header; it is sealed from the stored vectors, and its digest must
// reproduce the header's or the file is rejected.
func LoadFile(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := decodeSnapshot(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// reader consumes a byte slice. A read past the end sets short and yields
// zeros from then on, so a run of reads needs one check after it.
type reader struct {
	b     []byte
	short bool
}

func (r *reader) take(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.short, r.b = true, nil
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// fixed is take for the integer readers: n zero bytes when short.
func (r *reader) fixed(n int) []byte {
	if b := r.take(n); b != nil {
		return b
	}
	return make([]byte, n)
}

func (r *reader) u8() uint8   { return r.fixed(1)[0] }
func (r *reader) u16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// decodeSnapshot is LoadFile past the read.
func decodeSnapshot(raw []byte) (*Snapshot, error) {
	r := reader{b: raw}
	if string(r.take(len(persistMagic))) != persistMagic {
		return nil, corruptf("bad magic")
	}
	hdrLen := r.u32()
	if hdrLen > maxHeaderLen {
		return nil, corruptf("header length %d over cap", hdrLen)
	}
	hdrJSON := r.take(int(hdrLen))
	hdrCRC := r.u32()
	if r.short {
		return nil, corruptf("truncated in the header")
	}
	if crc32.ChecksumIEEE(hdrJSON) != hdrCRC {
		return nil, corruptf("header CRC mismatch")
	}
	var hdr persistHeader
	if err := json.Unmarshal(hdrJSON, &hdr); err != nil {
		return nil, corruptf("header JSON: %v", err)
	}
	if hdr.Version != persistVersion {
		return nil, corruptf("unsupported version %d", hdr.Version)
	}
	if hdr.Sections < 0 || hdr.MaxTopN <= 0 {
		return nil, corruptf("implausible header (sections %d, max_top_n %d)", hdr.Sections, hdr.MaxTopN)
	}

	c := &content{countries: map[string]countryRanks{}, tops: map[string]RankVec{}}
	for i := 0; i < hdr.Sections; i++ {
		sec := r.b
		kind := r.u8()
		key := string(r.take(int(r.u8())))
		nBodies := r.u32()
		if r.short {
			return nil, corruptf("truncated in section %d", i)
		}
		var bodies [1 + len(countryMetricKeys)][]byte
		want := 0
		switch kind {
		case sectionCountryRanks:
			want = len(bodies)
		case sectionTopRanks:
			want = 1
		}
		if nBodies != uint32(want) {
			return nil, corruptf("section %d (%s) has kind %d with %d bodies", i, key, kind, nBodies)
		}
		for j := 0; j < want; j++ {
			bodies[j] = r.take(int(r.u32()))
		}
		secLen := len(sec) - len(r.b)
		secCRC := r.u32()
		if r.short {
			return nil, corruptf("truncated in section %d (%s)", i, key)
		}
		if crc32.ChecksumIEEE(sec[:secLen]) != secCRC {
			return nil, corruptf("section %d (%s) CRC mismatch", i, key)
		}
		if kind == sectionTopRanks {
			v, err := decodeRankVec(bodies[0], hdr.MaxTopN)
			if err != nil {
				return nil, corruptf("top %q: %v", key, err)
			}
			if _, dup := c.tops[key]; dup || v.Name != key {
				return nil, corruptf("top %q repeated, or holding the vector of %q", key, v.Name)
			}
			c.tops[key] = v
			continue
		}
		cr := countryRanks{name: string(bodies[0])}
		for j := range cr.vecs {
			v, err := decodeRankVec(bodies[1+j], hdr.MaxTopN)
			if err != nil {
				return nil, corruptf("country %q metric %s: %v", key, countryMetricKeys[j], err)
			}
			cr.vecs[j] = v
		}
		if _, dup := c.countries[key]; dup {
			return nil, corruptf("country %q repeated", key)
		}
		c.countries[key] = cr
	}
	if string(r.take(len(persistTrailer))) != persistTrailer {
		return nil, corruptf("missing trailer (truncated file)")
	}
	if len(r.b) != 0 {
		return nil, corruptf("%d trailing bytes after trailer", len(r.b))
	}

	s := seal(c, hdr.Epoch, hdr.Degraded, true, hdr.MaxTopN)
	if s.Digest != hdr.Digest {
		return nil, corruptf("content digest %s does not match header %s",
			shortDigest(s.Digest), shortDigest(hdr.Digest))
	}
	s.SavedAt = time.Unix(hdr.SavedUnix, 0)
	return s, nil
}

// encodeRankVec appends one rank vector's binary encoding (layout in the
// file comment). Float values travel as raw bits so a loaded vector renders
// and diffs bit-identically to the one that was saved.
func encodeRankVec(dst []byte, v RankVec) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.Name)))
	dst = append(dst, v.Name...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.Entries)))
	for _, e := range v.Entries {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.ASN))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Value))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Name)))
		dst = append(dst, e.Name...)
		dst = append(dst, byte(len(e.Country)))
		dst = append(dst, e.Country...)
	}
	return dst
}

// decodeRankVec parses encodeRankVec's output, rejecting truncation,
// trailing bytes and a vector longer than maxN (the section CRC already
// caught bit rot; this catches structural nonsense).
func decodeRankVec(b []byte, maxN int) (RankVec, error) {
	r := reader{b: b}
	v := RankVec{Name: string(r.take(int(r.u16())))}
	n := r.u32()
	if r.short {
		return RankVec{}, errors.New("rank vector truncated before its entries")
	}
	if uint64(n) > uint64(len(r.b)/minEntryLen) || uint64(n) > uint64(maxN) {
		return RankVec{}, fmt.Errorf("rank vector entry count %d implausible (%d bytes follow, max_top_n %d)", n, len(r.b), maxN)
	}
	v.Entries = make([]RankEntry, n)
	for i := range v.Entries {
		e := &v.Entries[i]
		e.ASN = asn.ASN(r.u32())
		e.Value = math.Float64frombits(r.u64())
		e.Name = string(r.take(int(r.u16())))
		e.Country = countries.Code(r.take(int(r.u8())))
	}
	if r.short {
		return RankVec{}, errors.New("rank vector truncated in its entries")
	}
	if len(r.b) != 0 {
		return RankVec{}, fmt.Errorf("rank vector has %d trailing bytes", len(r.b))
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
