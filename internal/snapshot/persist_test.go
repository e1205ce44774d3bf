package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestPersistRoundTrip pins the durability contract: a saved snapshot loads
// back byte-identical — same digest, same epoch, same bodies and ETags —
// and comes back marked stale with its persist time.
func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPersister(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := Assemble(testData(7), Config{})
	path, err := p.Save(s)
	if err != nil {
		t.Fatal(err)
	}
	if ep, ok := epochFromPath(path); !ok || ep != 7 {
		t.Errorf("generation file name %q does not encode epoch 7", path)
	}

	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != s.Epoch || got.Digest != s.Digest {
		t.Errorf("loaded epoch/digest = %d/%s, want %d/%s", got.Epoch, got.Digest, s.Epoch, s.Digest)
	}
	if !got.Stale {
		t.Error("loaded snapshot not marked Stale")
	}
	if got.SavedAt.IsZero() {
		t.Error("loaded snapshot has zero SavedAt")
	}
	if got.MaxTopN() != s.MaxTopN() {
		t.Errorf("loaded maxTopN = %d, want %d", got.MaxTopN(), s.MaxTopN())
	}
	for _, cc := range s.CountryCodes() {
		if !bytes.Equal(got.CountryBody(cc), s.CountryBody(cc)) {
			t.Errorf("country %s body changed across persist round trip", cc)
		}
		if got.CountryETag(cc) != s.CountryETag(cc) {
			t.Errorf("country %s ETag changed across persist round trip", cc)
		}
	}
	for _, m := range s.TopMetrics() {
		if len(got.tops[m]) != len(s.tops[m]) {
			t.Fatalf("top %s has %d variants, want %d", m, len(got.tops[m]), len(s.tops[m]))
		}
		for i := range s.tops[m] {
			if !bytes.Equal(got.tops[m][i].body, s.tops[m][i].body) {
				t.Errorf("top %s variant %d body changed", m, i)
			}
		}
	}

	// Format v2 persists the structured rank vectors; the warm load must
	// reproduce them exactly so an offline rankdiff over generation files
	// agrees with the live drift computed from the in-memory snapshots.
	if !got.HasRanks() {
		t.Fatal("loaded snapshot carries no rank vectors")
	}
	if !reflect.DeepEqual(got.ranks, s.ranks) {
		t.Errorf("country rank vectors changed across persist round trip:\n got %v\nwant %v", got.ranks, s.ranks)
	}
	if !reflect.DeepEqual(got.topRanks, s.topRanks) {
		t.Errorf("top rank vectors changed across persist round trip:\n got %v\nwant %v", got.topRanks, s.topRanks)
	}

	// The warm-loaded index page must advertise the staleness.
	var idx struct {
		Stale  bool   `json:"stale"`
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(got.IndexBody(), &idx); err != nil {
		t.Fatalf("loaded index invalid JSON: %v", err)
	}
	if !idx.Stale || idx.Digest != s.Digest {
		t.Errorf("loaded index stale/digest = %v/%s, want true/%s", idx.Stale, idx.Digest, s.Digest)
	}
	// The fresh snapshot's index must not be stale — and because the digest
	// excludes the markers, both snapshots share the content digest.
	if err := json.Unmarshal(s.IndexBody(), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Stale {
		t.Error("fresh snapshot's index marked stale")
	}
}

// TestPersistRejectsCorruption flips one byte at every position of a valid
// generation file and requires the loader to reject each mutant: magic,
// header, CRCs, lengths, bodies, trailer — no single-byte corruption may
// load. (Bodies are CRC-covered, so even a flip that keeps the structure
// parseable must die at a CRC or digest check.)
func TestPersistRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPersister(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	path, err := p.Save(Assemble(testData(1), Config{}))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}

	mutant := filepath.Join(dir, "mutant.csnap")
	// Exhaustive single-byte flips are cheap at test-snapshot size.
	for i := 0; i < len(orig); i++ {
		buf := bytes.Clone(orig)
		buf[i] ^= 0x40
		if err := os.WriteFile(mutant, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(mutant); err == nil {
			t.Fatalf("flip at byte %d of %d loaded successfully", i, len(orig))
		}
	}

	// Truncation at every length must also be rejected.
	for _, n := range []int{0, 1, len(persistMagic), len(orig) / 2, len(orig) - 1} {
		if err := os.WriteFile(mutant, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(mutant); err == nil {
			t.Fatalf("truncation to %d bytes loaded successfully", n)
		}
	}
}

// TestPersistRejectsDigestMismatch covers the last validation layer: a
// structurally valid file whose header digest does not describe its bodies
// (CRCs forged along with content) must still be rejected.
func TestPersistRejectsDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	s := Assemble(testData(1), Config{})
	s.Digest = strings.Repeat("ab", 32) // lie about the content
	path := filepath.Join(dir, "forged.csnap")
	if err := writeSnapshotFile(path, s); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(path)
	if err == nil {
		t.Fatal("file with forged digest loaded successfully")
	}
	if !strings.Contains(err.Error(), "digest") {
		t.Errorf("rejection reason %q does not mention the digest", err)
	}
}

// TestPersistRejectsOtherVersions: the loader reads the one format Save
// writes. A well-formed file that claims another version — header CRC
// recomputed, so only the version check can object — is rejected as corrupt,
// which is what lets warm start fall back to the next generation. Version 1
// (no rank sections) used to load; no such file exists any more.
func TestPersistRejectsOtherVersions(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v2.csnap")
	if err := writeSnapshotFile(path, Assemble(testData(1), Config{})); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdrStart := len(persistMagic) + 4
	hdrEnd := hdrStart + int(binary.LittleEndian.Uint32(orig[len(persistMagic):]))
	for _, v := range []string{"1", "3"} {
		buf := bytes.Clone(orig)
		hdr := bytes.Replace(buf[hdrStart:hdrEnd], []byte(`"version":2`), []byte(`"version":`+v), 1)
		if len(hdr) != hdrEnd-hdrStart || bytes.Equal(hdr, orig[hdrStart:hdrEnd]) {
			t.Fatalf("header %q carries no version field to rewrite", orig[hdrStart:hdrEnd])
		}
		copy(buf[hdrStart:hdrEnd], hdr)
		binary.LittleEndian.PutUint32(buf[hdrEnd:], crc32.ChecksumIEEE(hdr))
		other := filepath.Join(dir, "v"+v+".csnap")
		if err := os.WriteFile(other, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(other); !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "unsupported version "+v) {
			t.Errorf("version %s file: LoadFile = %v, want a corrupt-file error naming the version", v, err)
		}
	}
}

// TestLoadLatestFallsBack pins the warm-start fallback: when the newest
// generation is corrupt, LoadLatest skips it and serves the previous one.
func TestLoadLatestFallsBack(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPersister(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	old := Assemble(testData(1), Config{})
	if _, err := p.Save(old); err != nil {
		t.Fatal(err)
	}
	newest := Assemble(testData(2), Config{})
	newPath, err := p.Save(newest)
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: intact store loads the newest.
	got, skipped, err := p.LoadLatest()
	if err != nil || skipped != 0 || got == nil || got.Epoch != 2 {
		t.Fatalf("intact LoadLatest = %v epoch=%v skipped=%d, want epoch 2", err, got, skipped)
	}

	// Corrupt the newest (truncate mid-body) → fall back to epoch 1.
	raw, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, skipped, err = p.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || got == nil || got.Epoch != 1 || got.Digest != old.Digest {
		t.Fatalf("fallback LoadLatest epoch=%v skipped=%d, want epoch 1 skipped 1", got, skipped)
	}

	// Corrupt everything → no snapshot, both counted, no error.
	oldPath := genPath(dir, 1)
	if err := os.WriteFile(oldPath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, skipped, err = p.LoadLatest()
	if err != nil || got != nil || skipped != 2 {
		t.Fatalf("all-corrupt LoadLatest = %v %v skipped=%d, want nil/2", got, err, skipped)
	}

	// An empty directory is a clean cold start, not an error.
	p2, err := NewPersister(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	got, skipped, err = p2.LoadLatest()
	if err != nil || got != nil || skipped != 0 {
		t.Fatalf("empty-dir LoadLatest = %v %v skipped=%d, want nil/0", got, err, skipped)
	}
}

// TestPersistPrunes checks keep-last-K: saving beyond the limit removes the
// oldest generations and abandoned .tmp files.
func TestPersistPrunes(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPersister(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-write leaves a .tmp behind; prune must clear it.
	if err := os.WriteFile(filepath.Join(dir, "snap-00.csnap.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	for epoch := int64(1); epoch <= 4; epoch++ {
		if _, err := p.Save(Assemble(testData(epoch), Config{})); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("after 4 saves with keep=2, dir holds %v", names)
	}
	for _, want := range []int64{3, 4} {
		if _, err := os.Stat(genPath(dir, want)); err != nil {
			t.Errorf("generation %d missing after prune: %v", want, err)
		}
	}
}
