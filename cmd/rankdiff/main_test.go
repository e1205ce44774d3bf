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
