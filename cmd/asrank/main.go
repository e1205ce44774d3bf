// Command asrank prints the global rankings — customer cone (CCG, CAIDA
// AS Rank's metric) and hegemony (AHG, IHR's metric) — plus, optionally,
// the per-country baselines for comparison, on the synthetic world.
//
// Usage:
//
//	asrank [-seed N] [-scale F] [-vpscale F] [-top K] [-ahc CC] [-json]
//	       [-v LEVEL] [-debug-addr HOST:PORT] [-debug-linger D]
//	       [-trace-out FILE] [-manifest FILE] [-timeline D]
//
// -v raises the structured-log verbosity (0 info, 1 debug stage logs);
// -debug-addr serves /metrics, /healthz, expvar, pprof, /debug/trace, and
// /debug/timeline, and -debug-linger keeps that server up after the run
// for scraping. -trace-out writes the stage spans as Chrome trace-event
// JSON (open in Perfetto), -manifest writes the run provenance manifest
// (flags, seeds, coverage, sanitize drops, metric snapshot), and
// -timeline samples the registry into the /debug/timeline ring buffer.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/obs"
	"countryrank/internal/rank"
	"countryrank/internal/snapshot"
)

func main() {
	var opt core.Options
	flag.Int64Var(&opt.Seed, "seed", 1, "world seed")
	flag.Float64Var(&opt.StubScale, "scale", 1, "stub-count scale factor")
	flag.Float64Var(&opt.VPScale, "vpscale", 1, "VP-count scale factor")
	top := flag.Int("top", 20, "entries per ranking")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (the snapshot wire encoding rankd serves) instead of tables")
	ahc := flag.String("ahc", "", "also print the AHC baseline for this country code")
	flag.IntVar(&opt.Routing.Shards, "shards", 0, "propagation shards (0 = 4×GOMAXPROCS)")
	ofl := obs.FlagsOn(flag.CommandLine, "asrank")
	flag.Parse()
	ofl.Init()

	ofl.Manifest.Seed("world", opt.Seed)
	p := core.NewPipeline(opt)
	slog.Debug("pipeline ready", "accepted", p.DS.Len())
	ofl.Manifest.SetCoverage(p.Coverage.Info())
	ofl.Manifest.SetDrops(p.DS.Stats.Drops())
	ccg, ahg := p.Global()
	rankings := []*rank.Ranking{ccg, ahg}
	if *ahc != "" {
		c := countries.Code(strings.ToUpper(*ahc))
		if !countries.Known(c) {
			slog.Error("unknown country", "code", *ahc)
			os.Exit(1)
		}
		rankings = append(rankings, p.AHC(c))
	}

	if *jsonOut {
		// The snapshot encoder renders here exactly what rankd serves, so
		// batch and served output are byte-identical per ranking.
		out := []byte(`{"rankings":[`)
		for i, r := range rankings {
			if i > 0 {
				out = append(out, ',')
			}
			out = snapshot.AppendRanking(out, r, *top)
		}
		out = append(out, "]}\n"...)
		if _, err := os.Stdout.Write(out); err != nil {
			slog.Error("write JSON", "err", err)
			os.Exit(1)
		}
	} else {
		for i, r := range rankings {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(r.Render(*top))
		}
	}
	ofl.Done()
}
