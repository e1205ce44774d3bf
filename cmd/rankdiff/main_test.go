package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResolvePathsMissingDir: a mistyped -snapshot-dir is an error naming
// the path, with or without -epochs, and rankdiff leaves nothing behind — it
// reads a store, it does not open one.
func TestResolvePathsMissingDir(t *testing.T) {
	nope := filepath.Join(t.TempDir(), "nope")
	for _, epochs := range []string{"", "1,2"} {
		if _, _, err := resolvePaths(nope, epochs, nil); err == nil || !strings.Contains(err.Error(), nope) {
			t.Errorf("-epochs %q: resolvePaths on a missing directory = %v, want an error naming %s", epochs, err, nope)
		}
		if _, err := os.Stat(nope); !os.IsNotExist(err) {
			t.Fatalf("-epochs %q: resolvePaths created %s (stat: %v)", epochs, nope, err)
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
		_, _, err := resolvePaths(tc.dir, tc.epochs, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("dir %q, -epochs %q, args %q: err %v, want one naming %s", tc.dir, tc.epochs, tc.args, err, tc.want)
		}
	}
}
