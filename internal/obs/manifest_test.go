package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestManifestGolden pins the manifest JSON schema. The fixture fills every
// field with fixed values; any rename, reorder, or type change shows up as
// a golden diff and must come with a ManifestSchema bump.
func TestManifestGolden(t *testing.T) {
	m := &RunManifest{
		Schema:      ManifestSchema,
		Cmd:         "asrank",
		Started:     "2026-08-05T12:00:00Z",
		WallSeconds: 1.25,
		Args:        []string{"-seed", "7", "-scale", "0.5"},
		Flags:       map[string]string{"seed": "7", "scale": "0.5", "top": "20"},
		Seeds:       map[string]int64{"world": 7},
		Env: RunEnv{
			GoVersion:  "go1.24.0",
			GOOS:       "linux",
			GOARCH:     "amd64",
			NumCPU:     8,
			GoMaxProcs: 8,
		},
		Inputs: []InputDigest{{
			Path:   "dumps/rrc00.mrt",
			SHA256: "0f343b0931126a20f133d67c2b018a3b1e3b0e6f9cd69f0c9e1c0f3a2b1d4e5f",
			Bytes:  4096,
		}},
		Coverage: &CoverageInfo{
			VPsExpected:  40,
			VPsDelivered: 38,
			RecordsLost:  12,
			Resyncs:      1,
			SkippedBytes: 512,
			Degraded:     true,
		},
		SanitizeDrops: &DropStats{
			Total:    1000,
			Accepted: 900,
			Rejected: 100,
			ByReason: map[string]int{"loop": 40, "unstable": 60},
		},
		Metrics:  map[string]any{"countryrank_test_records_total": int64(1000)},
		SpanTree: "pipeline 1.25s\n  sanitize 0.5s\n",
	}
	var b strings.Builder
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", "manifest.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("manifest schema drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestNewRunManifest checks the skeleton capture: schema version, full flag
// set with effective values, and a sane environment block.
func TestNewRunManifest(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.Int64("seed", 1, "")
	fs.Float64("scale", 1, "")
	if err := fs.Parse([]string{"-seed", "42"}); err != nil {
		t.Fatal(err)
	}
	m := NewRunManifest("testcmd", fs)
	if m.Schema != ManifestSchema {
		t.Errorf("Schema = %d, want %d", m.Schema, ManifestSchema)
	}
	if m.Cmd != "testcmd" {
		t.Errorf("Cmd = %q", m.Cmd)
	}
	if m.Flags["seed"] != "42" {
		t.Errorf("Flags[seed] = %q, want 42 (parsed value, not default)", m.Flags["seed"])
	}
	if m.Flags["scale"] != "1" {
		t.Errorf("Flags[scale] = %q, want the default 1", m.Flags["scale"])
	}
	if m.Env.GoVersion == "" || m.Env.GoMaxProcs <= 0 || m.Env.NumCPU <= 0 {
		t.Errorf("Env incomplete: %+v", m.Env)
	}
	if _, err := time.Parse(time.RFC3339, m.Started); err != nil {
		t.Errorf("Started %q not RFC3339: %v", m.Started, err)
	}

	m.Seed("world", 42)
	m.SetCoverage(CoverageInfo{VPsExpected: 3, VPsDelivered: 3})
	m.SetDrops(DropStats{Total: 10, Accepted: 9, Rejected: 1})
	m.Finish(2*time.Second, map[string]any{"countryrank_test_total": int64(1)}, "root 2s\n")
	if m.WallSeconds != 2 {
		t.Errorf("WallSeconds = %v, want 2", m.WallSeconds)
	}

	var b strings.Builder
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	for _, key := range []string{"schema", "cmd", "started", "wall_seconds", "args", "flags", "seeds", "env", "coverage", "sanitize_drops", "metrics", "span_tree"} {
		if _, ok := back[key]; !ok {
			t.Errorf("manifest JSON missing key %q", key)
		}
	}
}

// TestHashFile checks the digest helper against a directly computed sum.
func TestHashFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "input.mrt")
	content := []byte("some mrt bytes\n")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := HashFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(content)
	if d.SHA256 != hex.EncodeToString(sum[:]) {
		t.Errorf("SHA256 = %s, want %s", d.SHA256, hex.EncodeToString(sum[:]))
	}
	if d.Bytes != int64(len(content)) {
		t.Errorf("Bytes = %d, want %d", d.Bytes, len(content))
	}
	if d.Path != path {
		t.Errorf("Path = %q, want %q", d.Path, path)
	}
	if _, err := HashFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("HashFile on a missing file should error")
	}
}

// TestManifestNotes checks SetNote: notes land in the JSON under "notes",
// and a manifest with no notes omits the key entirely so the golden schema
// (and every existing consumer) is unaffected.
func TestManifestNotes(t *testing.T) {
	m := &RunManifest{}
	var b strings.Builder
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `"notes"`) {
		t.Errorf("empty manifest should omit notes:\n%s", b.String())
	}

	m.SetNote("snapshot_digest", "abc123")
	m.SetNote("serving_addr", "127.0.0.1:8080")
	m.SetNote("snapshot_digest", "def456") // later writes win
	b.Reset()
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Notes map[string]string `json:"notes"`
	}
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Notes["snapshot_digest"] != "def456" || back.Notes["serving_addr"] != "127.0.0.1:8080" {
		t.Errorf("notes = %v", back.Notes)
	}
}
