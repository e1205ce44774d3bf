package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/rank"
	"countryrank/internal/snapshot"
)

// TestResolvePathsMissingDir: a mistyped -snapshot-dir is an error naming
// the path, with or without -epochs, and rankdiff leaves nothing behind — it
// reads a store, it does not open one.
func TestResolvePathsMissingDir(t *testing.T) {
	nope := filepath.Join(t.TempDir(), "nope")
	for _, epochs := range []string{"", "1,2"} {
		if _, _, err := resolve(nope, epochs, nil, io.Discard); err == nil || !strings.Contains(err.Error(), nope) {
			t.Errorf("-epochs %q: resolve on a missing directory = %v, want an error naming %s", epochs, err, nope)
		}
		if _, err := os.Stat(nope); !os.IsNotExist(err) {
			t.Fatalf("-epochs %q: resolve created %s (stat: %v)", epochs, nope, err)
		}
	}
}

// TestResolvePathsUsageErrors: each way of naming the two generations wrongly
// is an error that names what is wrong, before any file is opened.
func TestResolvePathsUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		dir, epochs string
		args        []string
		want        string // substring of the error
	}{
		{"", "", []string{"a.csnap"}, "got 1 args"},
		{dir, "", []string{"a.csnap", "b.csnap"}, "mutually exclusive"},
		{dir, "3", nil, `"3"`},
		{dir, "3,x", nil, "-epochs"},
		// -epochs picks generations inside a store; without one it used to be
		// dropped silently and the positional files diffed instead.
		{"", "3,4", []string{"a.csnap", "b.csnap"}, "-epochs"},
	} {
		_, _, err := resolve(tc.dir, tc.epochs, tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("dir %q, -epochs %q, args %q: err %v, want one naming %s", tc.dir, tc.epochs, tc.args, err, tc.want)
		}
	}
}

// persistGens saves one generation per epoch under dir, each with a
// different global ranking so every pair diffs to a distinct drift.
func persistGens(t *testing.T, dir string, epochs ...int64) []string {
	t.Helper()
	p, err := snapshot.NewPersister(dir, len(epochs))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range epochs {
		r := rank.New("CCG", map[asn.ASN]float64{1221: 0.5, 4826: 0.1 * float64(e), 7545: 0.25}, nil, true)
		path, err := p.Save(snapshot.Assemble(snapshot.Data{Epoch: e, Tops: []snapshot.TopData{{Metric: "ccg", Ranking: r}}}, snapshot.Config{}))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// TestResolveSkipsInvalidNewest: with -snapshot-dir, a truncated newest
// generation is skipped and named on stderr, and the diff covers the two
// older ones — as rankd's warm start would serve them. With only one valid
// generation left, there is nothing to diff. -epochs stays strict: naming
// the truncated generation fails.
func TestResolveSkipsInvalidNewest(t *testing.T) {
	dir := t.TempDir()
	paths := persistGens(t, dir, 1, 2, 3)
	raw, err := os.ReadFile(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[2], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var warn bytes.Buffer
	oldSnap, newSnap, err := resolve(dir, "", nil, &warn)
	if err != nil {
		t.Fatalf("resolve with a truncated newest generation: %v", err)
	}
	if oldSnap.Epoch != 1 || newSnap.Epoch != 2 {
		t.Errorf("diffed epochs %d → %d, want 1 → 2", oldSnap.Epoch, newSnap.Epoch)
	}
	if !strings.Contains(warn.String(), paths[2]) {
		t.Errorf("stderr %q does not name the skipped generation %s", warn.String(), paths[2])
	}

	if _, _, err := resolve(dir, "2,3", nil, io.Discard); err == nil || !strings.Contains(err.Error(), paths[2]) {
		t.Errorf("-epochs 2,3 over a truncated generation = %v, want an error naming %s", err, paths[2])
	}

	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := resolve(dir, "", nil, io.Discard); err == nil || !strings.Contains(err.Error(), "need two to diff") {
		t.Errorf("resolve with one valid generation = %v, want the need-two error", err)
	}
}
