// Command experiments regenerates every table and figure of the paper's
// evaluation from the synthetic world and prints them in publication order.
//
// Usage:
//
//	experiments [-seed N] [-scale F] [-vpscale F] [-trials N] [-quick] [-only LIST]
//	            [-progress] [-v LEVEL] [-debug-addr HOST:PORT] [-debug-linger D]
//	            [-trace-out FILE] [-manifest FILE] [-timeline D]
//
// -quick runs a reduced world and fewer stability trials (an explicit
// -scale, -vpscale or -trials wins over it); -only selects a comma-separated
// subset (e.g. -only table1,figure4,table10). An unknown -only name or
// -trials below 1 is a usage error (exit 2). -progress
// streams per-experiment start/finish lines (with wall time and stability
// trial counts) to stderr and prints the stage tree at the end; -v raises
// the structured-log verbosity (0 info, 1 debug stage logs); -debug-addr
// serves /metrics, /healthz, expvar, pprof, /debug/trace, and
// /debug/timeline. -trace-out writes every experiment's span (including
// the parallel stability fan-out) as a Perfetto-loadable Chrome trace;
// -manifest records which seeds, flags, coverage, and sanitize drops
// produced the printed tables; -timeline samples the registry so long
// sweeps expose metric history, not just a final scrape.
package main

import (
	"flag"
	"fmt"
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
	"countryrank/internal/topology"
)

// writeArtifacts emits the shareable dataset the paper promises: rankings
// for the case-study countries, VP geolocations, per-country geolocation
// stats, and a bounded sample of the sanitized path data.
func writeArtifacts(p *core.Pipeline, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, f func(w *os.File) error) error {
		file, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := f(file); err != nil {
			file.Close()
			return err
		}
		return file.Close()
	}
	for _, c := range []countries.Code{"AU", "JP", "RU", "US", "TW"} {
		cr := p.Country(c)
		pairs := map[string]func(w *os.File) error{
			"cci_" + string(c) + ".csv": func(w *os.File) error { return export.WriteRankingCSV(w, cr.CCI) },
			"ahi_" + string(c) + ".csv": func(w *os.File) error { return export.WriteRankingCSV(w, cr.AHI) },
			"ccn_" + string(c) + ".csv": func(w *os.File) error { return export.WriteRankingCSV(w, cr.CCN) },
			"ahn_" + string(c) + ".csv": func(w *os.File) error { return export.WriteRankingCSV(w, cr.AHN) },
		}
		for name, f := range pairs {
			if err := write(name, f); err != nil {
				return err
			}
		}
	}
	if err := write("vps.csv", func(w *os.File) error {
		return export.WriteVPGeoCSV(w, p.World.VPs)
	}); err != nil {
		return err
	}
	if err := write("geostats.csv", func(w *os.File) error {
		return export.WriteGeoStatsCSV(w, p.Geo)
	}); err != nil {
		return err
	}
	return write("paths_sample.csv", func(w *os.File) error {
		return export.WritePathsCSV(w, p.DS, 100000)
	})
}

// drivers lists the names -only accepts, in print order.
var drivers = []string{
	"table1", "table2", "table4", "figure4", "figure5", "casestudies", "table9",
	"table10", "table11", "table12", "figure7", "figure8", "figure9", "figure10",
	"table13", "table14", "table13_14", "extensions",
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
	only := fs.String("only", "", "comma-separated experiment subset of "+strings.Join(drivers, ","))
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
		if !slices.Contains(drivers, s) {
			return c, ofl, fmt.Errorf("-only %s: no such experiment (have %s)", s, strings.Join(drivers, ", "))
		}
		c.only[s] = true
	}
	return c, ofl, nil
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
	run := func(name string) bool { return len(cfg.only) == 0 || cfg.only[name] }

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

	// timed wraps one experiment in a span so -progress, -v stage logs, and
	// the final stage tree all see it.
	timed := func(name string, f func()) {
		sp := obs.StartSpan(name)
		f()
		sp.End()
	}

	start := time.Now()
	slog.Info("building April 2021 pipeline", "seed", cfg.seed, "scale", cfg.scale, "vpscale", cfg.vpscale)
	p21 := core.NewPipeline(core.Options{Seed: cfg.seed, StubScale: cfg.scale, VPScale: cfg.vpscale})
	slog.Info("pipeline ready", "elapsed", time.Since(start).Round(time.Millisecond), "accepted", p21.DS.Len())
	ofl.Manifest.Seed("world", cfg.seed)
	ofl.Manifest.Seed("figure4_trials", cfg.seed+100)
	ofl.Manifest.Seed("figure5_trials", cfg.seed+200)
	ofl.Manifest.SetCoverage(p21.CoverageInfo())
	ofl.Manifest.SetDrops(p21.DS.Stats.Drops())

	section := func(s string) { fmt.Printf("\n================ %s\n", s) }

	if run("table1") {
		timed("table1", func() {
			section("Table 1")
			fmt.Print(experiments.RunTable1(p21).Render())
		})
	}
	if run("table2") {
		timed("table2", func() {
			section("Table 2")
			fmt.Print(experiments.RunTable2().Render())
		})
	}
	if run("table4") {
		timed("table4", func() {
			section("Tables 3 and 4")
			fmt.Print(experiments.RunTable4(p21).Render())
		})
	}
	if run("figure4") {
		timed("figure4", func() {
			section("Figure 4")
			fmt.Print(experiments.RunFigure4(p21, cfg.trials, cfg.seed+100).Render())
		})
	}
	if run("figure5") {
		timed("figure5", func() {
			section("Figure 5")
			fmt.Print(experiments.RunFigure5(p21, cfg.trials, cfg.seed+200).Render())
		})
	}
	if run("casestudies") {
		timed("casestudies", func() {
			ccg, _ := p21.Global()
			for _, c := range []countries.Code{"AU", "JP", "RU", "US"} {
				section("Table 5–8: " + string(c))
				fmt.Print(experiments.RunCaseStudy(p21, c, 2, ccg).Render())
			}
		})
	}
	if run("table9") {
		timed("table9", func() {
			section("Table 9")
			fmt.Print(experiments.RunTable9(p21, "AU").Render())
		})
	}

	var p23 *core.Pipeline
	need23 := run("table10") || run("table11")
	if need23 {
		slog.Info("building March 2023 pipeline")
		p23 = core.NewPipeline(core.Options{
			Seed: cfg.seed, Scenario: topology.Mar2023, StubScale: cfg.scale, VPScale: cfg.vpscale,
		})
	}
	if run("table10") {
		timed("table10", func() {
			section("Table 10 (Russia 2021→2023)")
			fmt.Print(experiments.RunTemporal(p21, p23, "RU").Render())
		})
	}
	if run("table11") {
		timed("table11", func() {
			section("Table 11 (Taiwan 2021→2023)")
			fmt.Print(experiments.RunTemporal(p21, p23, "TW").Render())
		})
	}
	if run("table12") {
		timed("table12", func() {
			section("Table 12")
			fmt.Print(experiments.RunTable12(p21).Render())
		})
	}
	if run("figure7") {
		timed("figure7", func() {
			section("Figure 7")
			fmt.Print(experiments.RunFigure7(p21).Render())
		})
	}
	if run("figure8") {
		timed("figure8", func() {
			section("Figure 8")
			fmt.Print(experiments.RunFigure8(p21).Render())
		})
	}
	if run("figure9") {
		timed("figure9", func() {
			section("Figure 9")
			fmt.Print(experiments.RunFigure9(p21).Render())
		})
	}
	if run("figure10") {
		timed("figure10", func() {
			section("Figure 10")
			fmt.Print(experiments.RunFigure10(p21).Render())
		})
	}
	if run("table13") || run("table14") || run("table13_14") {
		timed("table13_14", func() {
			section("Tables 13/14")
			fmt.Print(experiments.RunTable13_14(p21).Render())
		})
	}
	if run("extensions") {
		timed("extensions", func() {
			section("Extension: market concentration")
			fmt.Print(experiments.RunConcentration(p21,
				[]countries.Code{"AU", "JP", "RU", "US", "TW", "DE", "NL"}).Render())
			section("Extension: dependence matrix")
			fmt.Print(experiments.RunDependenceMatrix(p21, nil).Render())
			section("Extension: resilience (backup paths)")
			fmt.Print(experiments.RunResilience(p21, "JP", 3).Render())
			section("Extension: inference validation")
			fmt.Print(experiments.RunInferenceValidation(p21).Render())
		})
	}
	if cfg.artifacts != "" {
		timed("artifacts", func() {
			if err := writeArtifacts(p21, cfg.artifacts); err != nil {
				slog.Error("artifacts failed", "dir", cfg.artifacts, "err", err)
				os.Exit(1)
			}
			slog.Info("artifacts written", "dir", cfg.artifacts)
		})
	}
	slog.Info("done", "elapsed", time.Since(start).Round(time.Millisecond))
	if cfg.progress {
		fmt.Fprint(os.Stderr, "\nstage report:\n"+obs.DefaultTrace.Render())
	}
	ofl.Done()
}
