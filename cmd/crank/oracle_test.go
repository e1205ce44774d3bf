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
	"path/filepath"
	"strings"
	"testing"

	"countryrank/internal/core"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

const oracleGolden = "testdata/oracle.txt"

// TestOracle pins crank's stdout for four command lines, one line each in
// testdata/oracle.txt (UPDATE_GOLDEN=1 rewrites it): the generated pipeline
// and the same world read back from the dumps topogen writes (-mrt DIR),
// each as tables and as -json. Every line is rendered in-process through the
// command's own parseFlags, source and render. It is the committed check
// that an MRT import ranks the same bytes across a change; a change that
// moves a line states the old and new digest and why.
func TestOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a W05 world, exports its dumps and ranks four times")
	}
	// topogen -scale 0.5 -vpscale 0.5 -out DIR: one dump per collector.
	dir := t.TempDir()
	w := topology.Build(topology.Config{Seed: 1, StubScale: 0.5, VPScale: 0.5})
	col := routing.BuildCollection(w, routing.BuildOptions{})
	for _, c := range w.VPs.Collectors() {
		var buf bytes.Buffer
		if err := routing.ExportMRT(&buf, col, c.Name, 1617235200); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, c.Name+".mrt"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	b.WriteString("# name\tcommand\tlines\tsha256 (DIR holds topogen -scale 0.5 -vpscale 0.5 dumps)\n")
	for _, tc := range []struct{ name, args string }{
		{"crank", "-scale 0.5 -vpscale 0.5 -top 3 AU"},
		{"crank-json", "-scale 0.5 -vpscale 0.5 -top 3 -json AU"},
		{"crank-mrt", "-scale 0.5 -vpscale 0.5 -mrt DIR -top 3 AU"},
		{"crank-mrt-json", "-scale 0.5 -vpscale 0.5 -mrt DIR -top 3 -json AU"},
	} {
		args := strings.Fields(tc.args)
		for i, a := range args {
			if a == "DIR" {
				args[i] = dir
			}
		}
		fs := flag.NewFlagSet("crank", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg, _, err := parseFlags(fs, args)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := source(cfg)
		p, err := core.Run(context.Background(), src, cfg.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var out bytes.Buffer
		if err := render(&out, p, cfg); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(out.Bytes())
		fmt.Fprintf(&b, "%s\tcrank %s\t%d\t%s\n", tc.name, tc.args, bytes.Count(out.Bytes(), []byte("\n")), hex.EncodeToString(sum[:]))
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
