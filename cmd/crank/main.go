// Command crank ("country rank") computes the paper's country-level AS
// rankings. By default it builds the synthetic world in-process; with -mrt
// it instead ingests MRT TABLE_DUMP_V2 dumps produced by topogen, proving
// the pipeline runs off the standard interchange format.
//
// Usage:
//
//	crank [-seed N] [-scale F] [-vpscale F] [-mrt DIR] [-metric all|CCI|CCN|AHI|AHN|AHC|CTI] [-top K]
//	      [-v LEVEL] [-debug-addr HOST:PORT] [-debug-linger D]
//	      [-trace-out FILE] [-manifest FILE] [-timeline D] CC [CC...]
//
// Each positional argument is an ISO 3166-1 alpha-2 country code. -v raises
// the structured-log verbosity (0 info, 1 debug stage logs); -debug-addr
// serves /metrics, /healthz, expvar, pprof, /debug/trace, and
// /debug/timeline. -trace-out writes a Perfetto-loadable Chrome trace;
// -manifest writes the run provenance manifest — with -mrt, it carries a
// SHA-256 digest of every imported dump, so a ranking names the exact
// bytes it was computed from.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/obs"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	scale := flag.Float64("scale", 1, "stub-count scale factor")
	vpscale := flag.Float64("vpscale", 1, "VP-count scale factor")
	mrtDir := flag.String("mrt", "", "directory of MRT dumps from topogen (same seed/scale)")
	metric := flag.String("metric", "all", "metric to print")
	top := flag.Int("top", 10, "entries per ranking")
	shards := flag.Int("shards", 0, "propagation shards (0 = 4×GOMAXPROCS)")
	ofl := obs.FlagsOn(flag.CommandLine, "crank")
	flag.Parse()
	ofl.Init()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	ofl.Manifest.Seed("world", *seed)
	w := topology.Build(topology.Config{Seed: *seed, StubScale: *scale, VPScale: *vpscale})
	var col *routing.Collection
	if *mrtDir != "" {
		var err error
		var paths []string
		col, paths, err = loadMRT(w, *mrtDir)
		if err != nil {
			slog.Error("MRT import failed", "dir", *mrtDir, "err", err)
			os.Exit(1)
		}
		for _, path := range paths {
			if err := ofl.Manifest.AddInput(path); err != nil {
				slog.Warn("input digest failed", "path", path, "err", err)
			}
		}
		slog.Info("loaded MRT dumps", "records", col.NumRecords(), "dir", *mrtDir)
	} else {
		col = routing.BuildCollection(w, routing.BuildOptions{Shards: *shards})
	}
	p := core.NewPipelineFrom(w, col, core.Options{Seed: *seed})
	ofl.Manifest.SetCoverage(p.CoverageInfo())
	ofl.Manifest.SetDrops(p.DS.Stats.Drops())

	for _, arg := range flag.Args() {
		c := countries.Code(strings.ToUpper(arg))
		if !countries.Known(c) {
			slog.Warn("unknown country, skipping", "code", arg)
			continue
		}
		fmt.Printf("== %s (%s)\n", c, countries.Name(c))
		cr := p.Country(c)
		show := strings.ToUpper(*metric)
		if show == "ALL" || show == "CCI" {
			fmt.Print(cr.CCI.Render(*top))
		}
		if show == "ALL" || show == "AHI" {
			fmt.Print(cr.AHI.Render(*top))
		}
		if show == "ALL" || show == "CCN" {
			fmt.Print(cr.CCN.Render(*top))
		}
		if show == "ALL" || show == "AHN" {
			fmt.Print(cr.AHN.Render(*top))
		}
		if show == "AHC" {
			fmt.Print(p.AHC(c).Render(*top))
		}
		if show == "CTI" {
			fmt.Print(p.CTI(c).Render(*top))
		}
	}
	ofl.Done()
}

// loadMRT imports every .mrt file in dir against the world's VP set,
// returning the collection and the imported file paths (for provenance
// digests). Files decode chunk-parallel via ImportMRTFiles.
func loadMRT(w *topology.World, dir string) (*routing.Collection, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".mrt") {
			continue
		}
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no .mrt files in %s", dir)
	}
	col, _, err := routing.ImportMRTFiles(w, paths, routing.ImportOptions{})
	return col, paths, err
}
