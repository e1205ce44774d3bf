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
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/obs"
	"countryrank/internal/snapshot"
)

func TestParseFlags(t *testing.T) {
	def := config{opt: core.Options{Seed: 1, StubScale: 1, VPScale: 1}, metric: "all", top: 10}
	with := func(f func(*config)) config {
		c := def
		f(&c)
		return c
	}
	for _, tc := range []struct {
		args string
		want config
		err  string // substring of the usage error; "" means accepted
	}{
		{"AU", with(func(c *config) { c.codes = []countries.Code{"AU"} }), ""},
		{"-seed 101 -scale 0.5 -vpscale 0.5 -mrt DIR AU JP RU US", // the benchmark's line
			with(func(c *config) {
				c.opt.Seed, c.opt.StubScale, c.opt.VPScale = 101, 0.5, 0.5
				c.mrtDir, c.codes = "DIR", []countries.Code{"AU", "JP", "RU", "US"}
			}), ""},
		{"-metric CTI -top 3 -shards 8 au", with(func(c *config) {
			c.metric, c.top, c.opt.Routing.Shards, c.codes = "cti", 3, 8, []countries.Code{"AU"}
		}), ""},
		{"-metric global -json", with(func(c *config) { c.metric, c.json = "global", true }), ""},
		{"-metric global AU", def, "takes no country code"},
		{"AU ZZ", def, `unknown country code "ZZ"`}, // before any work, not a warning after it
		{"-metric bogus AU", def, "-metric bogus: no such metric (have all, cci, ccn, ahi, ahn, ahc, cti, global)"},
		{"-metric ccg AU", def, "-metric ccg"},
		{"-metric CCI", def, "no country code"},
		{"", def, "no country code"},
		{"-nosuchflag AU", def, "not defined"},
	} {
		fs := flag.NewFlagSet("crank", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		got, _, err := parseFlags(fs, strings.Fields(tc.args))
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.args, err)
		case tc.err == "" && !reflect.DeepEqual(got, tc.want):
			t.Errorf("%q: parsed %+v, want %+v", tc.args, got, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: error %v, want one naming %q", tc.args, err, tc.err)
		}
	}
}

// TestRenderGlobalJSON: -metric global -json is one document holding CCG then
// AHG, each exactly snapshot.AppendRanking's bytes — the encoding rankd
// serves — and the table form is the two rankings' own rendering.
func TestRenderGlobalJSON(t *testing.T) {
	p, err := core.Run(context.Background(), core.Generated, core.Options{Seed: 1, StubScale: 0.15, VPScale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	ccg, ahg := p.Global()
	cfg := config{metric: "global", top: 5, json: true}

	var got bytes.Buffer
	if err := render(&got, p, cfg); err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"rankings":[`)
	want = snapshot.AppendRanking(want, ccg, cfg.top)
	want = append(want, ',')
	want = snapshot.AppendRanking(want, ahg, cfg.top)
	want = append(want, "]}\n"...)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-metric global -json wrote\n%s\nwant\n%s", got.Bytes(), want)
	}

	cfg.json = false
	got.Reset()
	if err := render(&got, p, cfg); err != nil {
		t.Fatal(err)
	}
	if want := ccg.Render(cfg.top) + ahg.Render(cfg.top); got.String() != want {
		t.Errorf("-metric global wrote\n%s\nwant\n%s", got.String(), want)
	}
}

// TestAddInputsOrderAndDigests: the manifest's inputs are what hashing the
// dumps one after another in path order gives — path, SHA-256 and size of
// each — however many workers hashed them, and a file that cannot be read is
// left out without disturbing the rest.
func TestAddInputsOrderAndDigests(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	var want []obs.InputDigest
	for i := 0; i < 9; i++ {
		body := bytes.Repeat([]byte{byte(i)}, 1+i*70_000)
		path := filepath.Join(dir, fmt.Sprintf("rc-%02d.mrt", i))
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(body)
		paths = append(paths, path)
		want = append(want, obs.InputDigest{Path: path, SHA256: hex.EncodeToString(sum[:]), Bytes: int64(len(body))})
	}
	paths = slices.Insert(paths, 4, filepath.Join(dir, "missing.mrt"))

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		m := obs.NewRunManifest("crank", nil)
		addInputs(m, paths)
		if !reflect.DeepEqual(m.Inputs, want) {
			t.Errorf("GOMAXPROCS=%d: inputs %+v, want %+v", procs, m.Inputs, want)
		}
	}
}
