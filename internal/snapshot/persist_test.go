package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sameEntity requires two preserialized responses to agree on everything a
// client can observe: body, ETag and Content-Length.
func sameEntity(t *testing.T, what string, got, want *entity) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Errorf("%s: present on one side only", what)
		}
		return
	}
	if !bytes.Equal(got.body, want.body) {
		t.Errorf("%s: body changed across persist round trip:\n got %s\nwant %s", what, got.body, want.body)
	}
	if got.etag != want.etag || got.etagHdr[0] != want.etagHdr[0] {
		t.Errorf("%s: ETag %s, want %s", what, got.etag, want.etag)
	}
	if got.lenHdr[0] != want.lenHdr[0] {
		t.Errorf("%s: Content-Length %s, want %s", what, got.lenHdr[0], want.lenHdr[0])
	}
}

// TestPersistRoundTrip pins the durability contract: a file stores only rank
// vectors, and a saved snapshot loads back serving the same bytes — same
// digest and epoch, every country page, top variant, history page, ETag and
// Content-Length — and comes back marked stale with its persist time.
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
	if path != GenerationPath(dir, 7) {
		t.Errorf("generation saved at %q, want %q", path, GenerationPath(dir, 7))
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
	if !reflect.DeepEqual(got.CountryCodes(), s.CountryCodes()) || !reflect.DeepEqual(got.TopMetrics(), s.TopMetrics()) {
		t.Fatalf("loaded keys %v %v, want %v %v", got.CountryCodes(), got.TopMetrics(), s.CountryCodes(), s.TopMetrics())
	}
	NewStore(s) // renders each side's history pages from its own vectors
	NewStore(got)
	for _, cc := range s.CountryCodes() {
		sameEntity(t, "country "+cc, got.countries[cc], s.countries[cc])
		sameEntity(t, "history "+cc, got.history[cc], s.history[cc])
	}
	for _, m := range s.TopMetrics() {
		if len(got.tops[m]) != len(s.tops[m]) {
			t.Fatalf("top %s has %d variants, want %d", m, len(got.tops[m]), len(s.tops[m]))
		}
		for i := range s.tops[m] {
			sameEntity(t, fmt.Sprintf("top %s n=%d", m, i+1), got.tops[m][i], s.tops[m][i])
		}
	}
	// The stale marker rides on the index page only, outside the digest: it
	// is the one served difference between the built and the loaded side.
	if !bytes.Contains(s.IndexBody(), []byte(`"stale":false`)) {
		t.Errorf("fresh snapshot's index is not marked \"stale\":false: %s", s.IndexBody())
	}
	if fresh := bytes.Replace(got.IndexBody(), []byte(`"stale":true`), []byte(`"stale":false`), 1); !bytes.Equal(fresh, s.IndexBody()) {
		t.Errorf("loaded index differs beyond the stale marker:\n got %s\nwant %s", got.IndexBody(), s.IndexBody())
	}

	// The loaded vectors are the saved ones exactly (floats as raw bits), so
	// an offline rankdiff over generation files agrees with the live drift.
	if !reflect.DeepEqual(got.ranks, s.ranks) {
		t.Errorf("rank vectors changed across persist round trip:\n got %v\nwant %v", got.ranks, s.ranks)
	}
	if d := Diff(s, got); d.MaxChurn != 0 || d.MaxRankDelta != 0 {
		t.Errorf("built vs loaded drift: churn %v, max delta %d, want 0", d.MaxChurn, d.MaxRankDelta)
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
// structurally valid file whose header digest does not describe its vectors
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

// TestPersistRejectsForgedVectors: the digest vouches for everything a
// loaded snapshot serves and everything it is diffed by, because both come
// from the stored vectors. Each forgery keeps the header's digest, changes
// the vectors and is written with consistent CRCs; only the content check
// can object.
func TestPersistRejectsForgedVectors(t *testing.T) {
	for name, forge := range map[string]func(c *content){
		"reordered vector": func(c *content) {
			e := c.countries["AU"].vecs[0].Entries // shared backing array
			e[0], e[1] = e[1], e[0]
		},
		"dropped country": func(c *content) { delete(c.countries, "JP") },
		"changed AS country": func(c *content) {
			c.tops["ccg"].Entries[2].Country = "NZ"
		},
	} {
		s := Assemble(testData(1), Config{})
		forge(s.ranks)
		path := filepath.Join(t.TempDir(), "forged.csnap")
		if err := writeSnapshotFile(path, s); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(path)
		if !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "digest") {
			t.Errorf("%s: LoadFile = %v, want a corrupt-file error naming the digest", name, err)
		}
	}
}

// headerOnly returns a well-formed generation file prefix — magic, a
// current-version header claiming the given section count, header CRC — for
// tests that append hand-made sections.
func headerOnly(sections int) []byte {
	hdr, _ := json.Marshal(persistHeader{
		Version: persistVersion, Digest: strings.Repeat("ab", 32), MaxTopN: 100, Sections: sections,
	})
	buf := []byte(persistMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(hdr))
}

// headerSpan locates the header JSON in a generation file.
func headerSpan(raw []byte) (start, end int) {
	start = len(persistMagic) + 4
	return start, start + int(binary.LittleEndian.Uint32(raw[len(persistMagic):]))
}

// TestLoadFileHostileCounts: a count field may not make the loader allocate
// more than the bytes that follow it could hold. Two ~120-byte files — one
// section claiming 2²⁶ bodies, one vector claiming 2²⁴ entries under a valid
// section CRC — must be rejected without the allocation they ask for.
func TestLoadFileHostileCounts(t *testing.T) {
	bodies := append(headerOnly(1), sectionCountryRanks, 2, 'A', 'U')
	bodies = binary.LittleEndian.AppendUint32(bodies, 1<<26)

	vec := binary.LittleEndian.AppendUint16(nil, 3)
	vec = append(vec, "ccg"...)
	vec = binary.LittleEndian.AppendUint32(vec, 1<<24)
	entries := append(appendSection(headerOnly(1), sectionTopRanks, "ccg", vec), persistTrailer...)

	for name, file := range map[string][]byte{"body count": bodies, "entry count": entries} {
		path := filepath.Join(t.TempDir(), "hostile.csnap")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadFile(path)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errCorrupt) {
			t.Errorf("%s: LoadFile = %v, want a corrupt-file error", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: rejecting a %d-byte file allocated %d bytes", name, len(file), got)
		}
	}
}

// TestPersistRejectsOtherVersions: the loader reads the one format Save
// writes. A well-formed file that claims another version — header CRC
// recomputed, so only the version check can object — is rejected as corrupt,
// which is what makes warm start skip it: a directory holding nothing else
// is a cold start.
func TestPersistRejectsOtherVersions(t *testing.T) {
	orig := encodeSnapshot(Assemble(testData(1), Config{}), 1)
	hdrStart, hdrEnd := headerSpan(orig)
	current := []byte(fmt.Sprintf(`"version":%d`, persistVersion))
	for _, v := range []string{"1", "2", "4"} {
		buf := bytes.Clone(orig)
		hdr := bytes.Replace(buf[hdrStart:hdrEnd], current, []byte(`"version":`+v), 1)
		if len(hdr) != hdrEnd-hdrStart || bytes.Equal(hdr, orig[hdrStart:hdrEnd]) {
			t.Fatalf("header %q carries no version field to rewrite", orig[hdrStart:hdrEnd])
		}
		copy(buf[hdrStart:hdrEnd], hdr)
		binary.LittleEndian.PutUint32(buf[hdrEnd:], crc32.ChecksumIEEE(hdr))
		genDir := t.TempDir()
		other := GenerationPath(genDir, 1)
		if err := os.WriteFile(other, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(other); !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "unsupported version "+v) {
			t.Errorf("version %s file: LoadFile = %v, want a corrupt-file error naming the version", v, err)
		}
		p, err := NewPersister(genDir, 3)
		if err != nil {
			t.Fatal(err)
		}
		rejects0 := mSnapLoadRejects.Value()
		if s, skipped, err := p.LoadLatest(); s != nil || skipped != 1 || err != nil {
			t.Errorf("version %s directory: LoadLatest = %v, %d skipped, %v; want a cold start with 1 skipped", v, s, skipped, err)
		}
		if got := mSnapLoadRejects.Value() - rejects0; got != 1 {
			t.Errorf("version %s directory: load_rejects_total moved by %d, want 1", v, got)
		}
	}
}

// FuzzLoadFile: whatever the bytes, the loader returns an error or a
// snapshot whose digest is the header's and which saves and loads again to
// the same digest; it never panics.
func FuzzLoadFile(f *testing.F) {
	f.Add(encodeSnapshot(Assemble(testData(1), Config{}), 1))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := decodeSnapshot(raw)
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("rejection %v is not a corrupt-file error", err)
			}
			return
		}
		var hdr persistHeader
		hdrStart, hdrEnd := headerSpan(raw)
		if err := json.Unmarshal(raw[hdrStart:hdrEnd], &hdr); err != nil || s.Digest != hdr.Digest {
			t.Fatalf("loaded digest %s, header %q (%v)", s.Digest, raw[hdrStart:hdrEnd], err)
		}
		again, err := decodeSnapshot(encodeSnapshot(s, hdr.SavedUnix))
		if err != nil || again.Digest != s.Digest {
			t.Fatalf("accepted file does not save and load again to digest %s: %v", s.Digest, err)
		}
	})
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
	oldPath := GenerationPath(dir, 1)
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
		if _, err := os.Stat(GenerationPath(dir, want)); err != nil {
			t.Errorf("generation %d missing after prune: %v", want, err)
		}
	}
}
