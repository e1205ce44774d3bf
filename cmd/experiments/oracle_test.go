package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"countryrank/internal/core"
	"countryrank/internal/snapshot"
)

const oracleGolden = "testdata/oracle.txt"

// TestOracle pins the outputs a behaviour-preserving change must leave
// byte-identical, one line each in testdata/oracle.txt (UPDATE_GOLDEN=1
// rewrites it): `experiments -quick` stdout, rendered in-process by the
// command's own run, and the served snapshot at the benchmark's W05 scale
// and seeds, built by core.Run and snapshot.Build as rankd builds an epoch.
// A change that moves a line states the old and new digest and why.
func TestOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("renders experiments -quick and two W05 snapshots")
	}
	var b strings.Builder
	b.WriteString("# name\tcommand\tlines\tsha256 (a snapshot's lines are its countries, its sha256 its content digest)\n")

	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, _, err := parseFlags(fs, []string{"-quick"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	run(cfg, &out)
	sum := sha256.Sum256(out.Bytes())
	fmt.Fprintf(&b, "experiments-quick\texperiments -quick\t%d\t%s\n", bytes.Count(out.Bytes(), []byte("\n")), hex.EncodeToString(sum[:]))

	for _, seed := range []int64{1, 101} {
		p, err := core.Run(context.Background(), core.Generated, core.Options{Seed: seed, StubScale: 0.5, VPScale: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		snap := snapshot.Build(p, 1, snapshot.Config{})
		fmt.Fprintf(&b, "snapshot-w05-seed%d\tsnapshot.Build(core.Run(Generated, seed %d, scale 0.5, vpscale 0.5))\t%d\t%s\n",
			seed, seed, len(snap.CountryCodes()), snap.Digest)
	}

	got := b.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(oracleGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(oracleGolden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("oracle moved (UPDATE_GOLDEN=1 rewrites %s after an intended change):\ngot:\n%s\nwant:\n%s", oracleGolden, got, want)
	}
}
