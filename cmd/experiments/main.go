// Command experiments regenerates every table and figure of the paper's
// evaluation from the synthetic world and prints them in publication order.
//
// Usage:
//
//	experiments [-seed N] [-scale F] [-vpscale F] [-trials N] [-quick] [-only LIST]
//	            [-progress] [-v LEVEL] [-debug-addr HOST:PORT]
//	            [-trace-out FILE] [-manifest FILE]
//
// -quick runs a reduced world and fewer stability trials (an explicit
// -scale, -vpscale or -trials wins over it); -only selects a comma-separated
// subset (e.g. -only table1,figure4,table10). An unknown -only name or
// -trials below 1 is a usage error (exit 2). -progress
// streams per-experiment start/finish lines (with wall time and stability
// trial counts) to stderr and prints the stage tree at the end; -v raises
// the structured-log verbosity (0 info, 1 debug stage logs); -debug-addr
// serves /metrics, /healthz, expvar, pprof and /debug/trace. -trace-out
// writes every experiment's span (including the parallel stability
// fan-out) as a Perfetto-loadable Chrome trace; -manifest records which
// seeds, flags, coverage, and sanitize drops produced the printed tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/experiments"
	"countryrank/internal/export"
	"countryrank/internal/obs"
	"countryrank/internal/rank"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

// writeArtifacts emits the shareable dataset the paper promises: rankings
// for the case-study countries, VP geolocations, per-country geolocation
// stats, and a bounded sample of the sanitized path data.
func writeArtifacts(p *core.Pipeline, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]func(w *os.File) error{
		"vps.csv":          func(w *os.File) error { return export.WriteVPGeoCSV(w, p.VPs) },
		"geostats.csv":     func(w *os.File) error { return export.WriteGeoStatsCSV(w, p.Geo) },
		"paths_sample.csv": func(w *os.File) error { return export.WritePathsCSV(w, p.DS, 100000) },
	}
	for _, c := range []countries.Code{"AU", "JP", "RU", "US", "TW"} {
		cr := p.Country(c)
		for m, r := range map[string]*rank.Ranking{"cci": cr.CCI, "ahi": cr.AHI, "ccn": cr.CCN, "ahn": cr.AHN} {
			files[m+"_"+string(c)+".csv"] = func(w *os.File) error { return export.WriteRankingCSV(w, r) }
		}
	}
	for name, f := range files {
		file, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := f(file); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
	}
	return nil
}

// env is what an experiment reads: the checked command line, the pipelines,
// and w21 and col21, the world p21's collection was generated over and that
// collection, which only the experiments that validate against ground truth
// or re-propagate read. col21 is set only when extensions, its one reader,
// is selected, and p23 only when a selected experiment asks for it.
type env struct {
	cfg      config
	w21      *topology.World
	col21    *routing.Collection
	p21, p23 *core.Pipeline
}

// section renders an experiment's header.
func section(s string) string { return fmt.Sprintf("\n================ %s\n", s) }

// catalogue is every experiment in print order: -only validation, the span
// name (names[0]) and the print loop all read it. The loop prints title as a
// header, then what run returns; an entry without one renders its own.
var catalogue = []struct {
	names []string // what -only accepts
	title string
	mar23 bool // reads env.p23
	run   func(e *env) string
}{
	{[]string{"table1"}, "Table 1", false, func(e *env) string { return experiments.RunTable1(e.p21).Render() }},
	{[]string{"table2"}, "Table 2", false, func(*env) string { return experiments.RunTable2().Render() }},
	{[]string{"table4"}, "Tables 3 and 4", false, func(e *env) string { return experiments.RunTable4(e.p21).Render() }},
	{[]string{"figure4"}, "Figure 4", false, func(e *env) string {
		return experiments.RunFigure4(e.p21, e.cfg.trials, e.cfg.seed+100).Render()
	}},
	{[]string{"figure5"}, "Figure 5", false, func(e *env) string {
		return experiments.RunFigure5(e.p21, e.cfg.trials, e.cfg.seed+200).Render()
	}},
	{[]string{"casestudies"}, "", false, func(e *env) string {
		ccg, _ := e.p21.Global()
		var out string
		for _, c := range []countries.Code{"AU", "JP", "RU", "US"} {
			out += section("Table 5–8: "+string(c)) + experiments.RunCaseStudy(e.p21, c, 2, ccg).Render()
		}
		return out
	}},
	{[]string{"table9"}, "Table 9", false, func(e *env) string { return experiments.RunTable9(e.p21, "AU").Render() }},
	{[]string{"table10"}, "Table 10 (Russia 2021→2023)", true, func(e *env) string {
		return experiments.RunTemporal(e.p21, e.p23, "RU").Render()
	}},
	{[]string{"table11"}, "Table 11 (Taiwan 2021→2023)", true, func(e *env) string {
		return experiments.RunTemporal(e.p21, e.p23, "TW").Render()
	}},
	{[]string{"table12"}, "Table 12", false, func(e *env) string { return experiments.RunTable12(e.p21).Render() }},
	{[]string{"figure7"}, "Figure 7", false, func(e *env) string { return experiments.RunFigure7(e.p21).Render() }},
	{[]string{"figure8"}, "Figure 8", false, func(e *env) string { return experiments.RunFigure8(e.p21).Render() }},
	{[]string{"figure9"}, "Figure 9", false, func(e *env) string { return experiments.RunFigure9(e.p21).Render() }},
	{[]string{"figure10"}, "Figure 10", false, func(e *env) string { return experiments.RunFigure10(e.p21).Render() }},
	{[]string{"table13_14", "table13", "table14"}, "Tables 13/14", false, func(e *env) string {
		return experiments.RunTable13_14(e.p21).Render()
	}},
	{[]string{"extensions"}, "", false, func(e *env) string {
		return section("Extension: market concentration") +
			experiments.RunConcentration(e.p21, []countries.Code{"AU", "JP", "RU", "US", "TW", "DE", "NL"}).Render() +
			section("Extension: dependence matrix") +
			experiments.RunDependenceMatrix(e.p21, nil).Render() +
			section("Extension: resilience (backup paths)") +
			experiments.RunResilience(e.p21, e.w21, e.col21, "JP", 3).Render() +
			section("Extension: inference validation") +
			experiments.RunInferenceValidation(e.p21, e.w21).Render()
	}},
}

// onlyNames lists what -only accepts, in print order.
func onlyNames() []string {
	var names []string
	for _, x := range catalogue {
		names = append(names, x.names...)
	}
	return names
}

// config is the command line after parsing and checking.
type config struct {
	seed           int64
	scale, vpscale float64
	trials         int
	only           map[string]bool // empty runs every driver
	artifacts      string
	progress       bool
}

// parseFlags registers the command's flags on fs, parses args and rejects
// what no run could honour. -quick only moves the defaults of -scale,
// -vpscale and -trials: a flag given explicitly wins.
func parseFlags(fs *flag.FlagSet, args []string) (config, *obs.CmdFlags, error) {
	c := config{only: map[string]bool{}}
	fs.Int64Var(&c.seed, "seed", 1, "world seed")
	fs.Float64Var(&c.scale, "scale", 1, "stub-count scale factor")
	fs.Float64Var(&c.vpscale, "vpscale", 1, "VP-count scale factor")
	fs.IntVar(&c.trials, "trials", 8, "downsampling trials per sample size (at least 1)")
	quick := fs.Bool("quick", false, "small world, few trials (-scale 0.3 -vpscale 0.4 -trials 3 unless given)")
	only := fs.String("only", "", "comma-separated experiment subset of "+strings.Join(onlyNames(), ","))
	fs.StringVar(&c.artifacts, "artifacts", "", "directory for the shareable dataset (CSV)")
	fs.BoolVar(&c.progress, "progress", false, "stream per-experiment start/finish lines to stderr")
	ofl := obs.FlagsOn(fs, "experiments")
	if err := fs.Parse(args); err != nil {
		return c, ofl, err
	}
	if *quick {
		given := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
		if !given["scale"] {
			c.scale = 0.3
		}
		if !given["vpscale"] {
			c.vpscale = 0.4
		}
		if !given["trials"] {
			c.trials = 3
		}
	}
	if c.trials < 1 {
		return c, ofl, fmt.Errorf("-trials %d: a stability curve needs at least one trial", c.trials)
	}
	for _, s := range strings.Split(*only, ",") {
		if s = strings.TrimSpace(strings.ToLower(s)); s == "" {
			continue
		}
		if !slices.Contains(onlyNames(), s) {
			return c, ofl, fmt.Errorf("-only %s: no such experiment (have %s)", s, strings.Join(onlyNames(), ", "))
		}
		c.only[s] = true
	}
	return c, ofl, nil
}

// run builds the April 2021 pipeline, prints every selected experiment to
// out in catalogue order and returns the pipeline it ranked.
func run(cfg config, out io.Writer) *core.Pipeline {
	start := time.Now()
	slog.Info("building April 2021 pipeline", "seed", cfg.seed, "scale", cfg.scale, "vpscale", cfg.vpscale)
	// The world is built here, not inside the pipeline's source, because the
	// inference-validation and resilience extensions read its ground truth.
	gs := obs.StartSpan("generate")
	w21 := topology.Build(topology.Config{Seed: cfg.seed, StubScale: cfg.scale, VPScale: cfg.vpscale})
	col21 := routing.BuildCollection(w21, routing.BuildOptions{})
	gs.End()
	p21 := core.NewPipelineFrom(w21, col21, core.Options{Seed: cfg.seed, StubScale: cfg.scale, VPScale: cfg.vpscale})
	slog.Info("pipeline ready", "elapsed", time.Since(start).Round(time.Millisecond), "accepted", p21.DS.Len())

	selected := func(names []string) bool {
		return len(cfg.only) == 0 || slices.ContainsFunc(names, func(n string) bool { return cfg.only[n] })
	}
	e := &env{cfg: cfg, w21: w21, p21: p21}
	if selected([]string{"extensions"}) {
		e.col21 = col21 // otherwise nothing reads it, and it dies here
	}
	for _, x := range catalogue {
		if !selected(x.names) {
			continue
		}
		if x.mar23 && e.p23 == nil {
			slog.Info("building March 2023 pipeline")
			e.p23 = core.NewPipeline(core.Options{
				Seed: cfg.seed, Scenario: topology.Mar2023, StubScale: cfg.scale, VPScale: cfg.vpscale,
			})
		}
		// One span per experiment, so -progress, -v stage logs and the final
		// stage tree all see it.
		sp := obs.StartSpan(x.names[0])
		if x.title != "" {
			fmt.Fprint(out, section(x.title))
		}
		fmt.Fprint(out, x.run(e))
		sp.End()
	}
	return p21
}

func main() {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	cfg, ofl, err := parseFlags(fs, os.Args[1:])
	if err != nil {
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		os.Exit(2)
	}
	ofl.Init()

	// With -progress, every top-level span — each experiment plus the
	// pipeline builds — streams a start line and a finish line carrying the
	// wall time and the rolled-up stability-trial count of its children.
	if cfg.progress {
		obs.DefaultTrace.OnStart = func(s *obs.Span) {
			if s.Depth() == 0 {
				fmt.Fprintf(os.Stderr, "[progress] %s started\n", s.Name)
			}
		}
		obs.DefaultTrace.OnEnd = func(s *obs.Span) {
			if s.Depth() != 0 {
				return
			}
			if n, unit := s.TotalItems(); n > 0 {
				fmt.Fprintf(os.Stderr, "[progress] %s done in %v (%d %s)\n",
					s.Name, s.Duration().Round(time.Millisecond), n, unit)
			} else {
				fmt.Fprintf(os.Stderr, "[progress] %s done in %v\n",
					s.Name, s.Duration().Round(time.Millisecond))
			}
		}
	}

	start := time.Now()
	p21 := run(cfg, os.Stdout)
	ofl.Manifest.Seed("world", cfg.seed)
	ofl.Manifest.Seed("figure4_trials", cfg.seed+100)
	ofl.Manifest.Seed("figure5_trials", cfg.seed+200)
	ofl.Manifest.SetCoverage(p21.Coverage.Info())
	ofl.Manifest.SetDrops(p21.DS.Stats.Drops())
	if cfg.artifacts != "" {
		sp := obs.StartSpan("artifacts")
		if err := writeArtifacts(p21, cfg.artifacts); err != nil {
			slog.Error("artifacts failed", "dir", cfg.artifacts, "err", err)
			os.Exit(1)
		}
		slog.Info("artifacts written", "dir", cfg.artifacts)
		sp.End()
	}
	slog.Info("done", "elapsed", time.Since(start).Round(time.Millisecond))
	if cfg.progress {
		fmt.Fprint(os.Stderr, "\nstage report:\n"+obs.DefaultTrace.Render())
	}
	ofl.Done()
}
