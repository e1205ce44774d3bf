// Command crank ("country rank") computes the paper's country-level AS
// rankings, and with -metric global the two global ones (customer cone CCG,
// CAIDA AS Rank's metric, and hegemony AHG, IHR's). By default it builds the
// synthetic world in-process; with -mrt it instead ingests MRT TABLE_DUMP_V2
// dumps produced by topogen, proving the pipeline runs off the standard
// interchange format. Dumps that cover only part of the world's vantage
// points never yield an unlabelled ranking: from half of them up every
// ranking name carries "[degraded: d/e VPs, …]" (and the manifest says so),
// below that crank prints none and exits 1.
//
// Usage:
//
//	crank [-seed N] [-scale F] [-vpscale F] [-mrt DIR] [-top K] [-json]
//	      [-metric all|CCI|CCN|AHI|AHN|AHC|CTI] CC [CC...]
//	crank [...] -metric global
//
// Each positional argument is an ISO 3166-1 alpha-2 country code. -json
// prints the rankings in the wire encoding rankd serves instead of tables.
// The shared observability flags: -v raises the structured-log verbosity (0
// info, 1 debug stage logs); -debug-addr serves /metrics, /healthz, expvar,
// pprof and /debug/trace while the run lasts. -trace-out writes a
// Perfetto-loadable Chrome trace; -manifest writes the run provenance
// manifest — with -mrt, it carries a SHA-256 digest of every imported
// dump, so a ranking names the exact bytes it was computed from.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/obs"
	"countryrank/internal/par"
	"countryrank/internal/rank"
	"countryrank/internal/snapshot"
)

// metrics lists what -metric accepts; "all" prints the paper's four for each
// country given, "global" CCG then AHG and takes no country.
var metrics = []string{"all", "cci", "ccn", "ahi", "ahn", "ahc", "cti", "global"}

// config is the command line after parsing and checking.
type config struct {
	opt    core.Options
	mrtDir string
	metric string // lower-cased member of metrics
	top    int
	json   bool
	codes  []countries.Code
}

// parseFlags registers the command's flags on fs, parses args and rejects
// what no run could honour.
func parseFlags(fs *flag.FlagSet, args []string) (config, *obs.CmdFlags, error) {
	var c config
	fs.Int64Var(&c.opt.Seed, "seed", 1, "world seed")
	fs.Float64Var(&c.opt.StubScale, "scale", 1, "stub-count scale factor")
	fs.Float64Var(&c.opt.VPScale, "vpscale", 1, "VP-count scale factor")
	fs.StringVar(&c.mrtDir, "mrt", "", "directory of MRT dumps from topogen (same seed/scale)")
	fs.StringVar(&c.metric, "metric", "all", "metric to print: "+strings.Join(metrics, "|"))
	fs.IntVar(&c.top, "top", 10, "entries per ranking")
	fs.BoolVar(&c.json, "json", false, "emit machine-readable JSON (the snapshot wire encoding rankd serves) instead of tables")
	ofl := obs.FlagsOn(fs, "crank")
	if err := fs.Parse(args); err != nil {
		return c, ofl, err
	}
	if c.metric = strings.ToLower(c.metric); !slices.Contains(metrics, c.metric) {
		return c, ofl, fmt.Errorf("-metric %s: no such metric (have %s)", c.metric, strings.Join(metrics, ", "))
	}
	if c.top < 1 {
		return c, ofl, fmt.Errorf("-top %d: want at least 1 entry per ranking", c.top)
	}
	for _, arg := range fs.Args() {
		code := countries.Code(strings.ToUpper(arg))
		if !countries.Known(code) {
			return c, ofl, fmt.Errorf("unknown country code %q", arg)
		}
		c.codes = append(c.codes, code)
	}
	switch global := c.metric == "global"; {
	case global && len(c.codes) > 0:
		return c, ofl, fmt.Errorf("-metric global takes no country code")
	case !global && len(c.codes) == 0:
		return c, ofl, fmt.Errorf("no country code given")
	}
	return c, ofl, nil
}

// addInputs digests the dumps into the manifest: hashed concurrently, listed
// in path order. Only a run that writes its manifest pays for the second read
// of every file.
func addInputs(m *obs.RunManifest, paths []string) {
	digests := make([]obs.InputDigest, len(paths))
	errs := make([]error, len(paths))
	par.ForEach(len(paths), func(i int) { digests[i], errs[i] = obs.HashFile(paths[i]) })
	for i, path := range paths {
		if errs[i] != nil {
			slog.Warn("input digest failed", "path", path, "err", errs[i])
			continue
		}
		m.AddInput(digests[i])
	}
}

func main() {
	fs := flag.NewFlagSet("crank", flag.ExitOnError)
	cfg, ofl, err := parseFlags(fs, os.Args[1:])
	if err != nil {
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		os.Exit(2)
	}
	ofl.Init()

	ofl.Manifest.Seed("world", cfg.opt.Seed)
	src, paths := source(cfg)
	if *ofl.ManifestOut != "" {
		addInputs(ofl.Manifest, paths)
	}
	p, err := core.Run(context.Background(), src, cfg.opt)
	if err != nil {
		slog.Error("pipeline failed", "mrt", cfg.mrtDir, "err", err)
		os.Exit(1)
	}
	slog.Info("pipeline ready", "records", p.DS.Stats.Total, "coverage", p.Coverage.String())
	ofl.Manifest.SetCoverage(p.Coverage.Info())
	ofl.Manifest.SetDrops(p.DS.Stats.Drops())

	if err := render(os.Stdout, p, cfg); err != nil {
		slog.Error("write rankings", "err", err)
		os.Exit(1)
	}
	ofl.Done()
}

// source is the pipeline source cfg selects and, with -mrt, the dumps it
// reads in path order.
func source(cfg config) (core.Source, []string) {
	if cfg.mrtDir == "" {
		return core.Generated, nil
	}
	paths, _ := filepath.Glob(filepath.Join(cfg.mrtDir, "*.mrt")) // a bad pattern lists nothing: 0 VPs, below quorum
	return core.MRTFiles(paths), paths
}

// render writes the rankings cfg selects: as tables under a header per
// country, or with -json as one document of snapshot.AppendRanking
// encodings — what rankd serves for the same rankings, byte for byte.
func render(w io.Writer, p *core.Pipeline, cfg config) error {
	doc := []byte(`{"rankings":[`)
	show := func(r *rank.Ranking) {
		if !cfg.json {
			fmt.Fprint(w, r.Render(cfg.top))
			return
		}
		if doc[len(doc)-1] != '[' {
			doc = append(doc, ',')
		}
		doc = snapshot.AppendRanking(doc, r, cfg.top)
	}
	if cfg.metric == "global" {
		ccg, ahg := p.Global()
		show(ccg)
		show(ahg)
	}
	for _, c := range cfg.codes {
		if !cfg.json {
			fmt.Fprintf(w, "== %s (%s)\n", c, countries.Name(c))
		}
		cr := p.Country(c)
		for _, m := range []struct {
			name string
			r    *rank.Ranking
		}{{"cci", cr.CCI}, {"ahi", cr.AHI}, {"ccn", cr.CCN}, {"ahn", cr.AHN}} {
			if cfg.metric == "all" || cfg.metric == m.name {
				show(m.r)
			}
		}
		switch cfg.metric {
		case "ahc":
			show(p.AHC(c))
		case "cti":
			show(p.CTI(c))
		}
	}
	if !cfg.json {
		return nil
	}
	_, err := w.Write(append(doc, "]}\n"...))
	return err
}
