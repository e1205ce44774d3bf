// Command topogen generates a synthetic world and exports its vantage-point
// RIBs as MRT TABLE_DUMP_V2 files — one per collector — into an output
// directory, plus a summary of the world on stdout. The files are the same
// interchange format RouteViews and RIPE RIS publish, so cmd/crank (or any
// MRT consumer) can process them.
//
// Usage:
//
//	topogen [-seed N] [-scale F] [-vpscale F] [-scenario 20210401|20230301] -out DIR
//	        [-v LEVEL] [-debug-addr HOST:PORT]
//	        [-trace-out FILE] [-manifest FILE]
//
// -v raises the structured-log verbosity (0 info, 1 debug stage logs);
// -debug-addr serves /metrics, /healthz, expvar, pprof and /debug/trace.
// -trace-out writes a Perfetto-loadable Chrome trace and
// -manifest a run provenance manifest, so a dump directory can be traced
// back to the exact seed and flags that generated it.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"countryrank/internal/obs"
	"countryrank/internal/par"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

func main() {
	var cfg topology.Config
	var bopt routing.BuildOptions
	flag.Int64Var(&cfg.Seed, "seed", 1, "world seed")
	flag.Float64Var(&cfg.StubScale, "scale", 1, "stub-count scale factor")
	flag.Float64Var(&cfg.VPScale, "vpscale", 1, "VP-count scale factor")
	scenario := flag.String("scenario", string(topology.Apr2021), "snapshot scenario: 20210401 or 20230301")
	out := flag.String("out", "", "output directory for MRT files (required)")
	flag.IntVar(&bopt.Shards, "shards", 0, "propagation shards (0 = 4×GOMAXPROCS)")
	ofl := obs.FlagsOn(flag.CommandLine, "topogen")
	flag.Parse()
	var err error
	if cfg.Scenario, err = parseScenario(*scenario); err != nil || *out == "" {
		if err != nil {
			fmt.Fprintln(flag.CommandLine.Output(), err)
		}
		flag.Usage()
		os.Exit(2)
	}
	ofl.Init()

	// Not a pipeline source: the summary prints generator-only statistics.
	ofl.Manifest.Seed("world", cfg.Seed)
	sp := obs.StartSpan("generate")
	ts := sp.Child("topology")
	w := topology.Build(cfg)
	ts.End()
	col := routing.BuildCollection(w, bopt)
	sp.End()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		slog.Error("create output directory", "dir", *out, "err", err)
		os.Exit(1)
	}
	// The dumps share nothing but the collection's read-only grouping, so
	// they are written concurrently; errors and -v 1 lines are reported in
	// collector order whatever order the writes finished in.
	collectors := w.VPs.Collectors()
	dump := func(i int) string { return filepath.Join(*out, collectors[i].Name+".mrt") }
	errs := make([]error, len(collectors))
	xs := obs.StartSpan("mrt-export")
	par.ForEach(len(collectors), func(i int) { errs[i] = writeDump(dump(i), col, collectors[i].Name) })
	xs.AddItems(int64(col.NumRecords()), "records")
	xs.End()
	for i, c := range collectors {
		if errs[i] != nil {
			slog.Error("export failed", "collector", c.Name, "err", errs[i])
			os.Exit(1)
		}
		slog.Debug("exported collector", "stage", "mrt-export", "collector", c.Name, "path", dump(i))
	}
	fmt.Printf("world: %d ASes, %d edges, %d prefixes, %d VPs\n",
		w.Graph.NumASes(), w.Graph.NumEdges(), len(col.Prefixes), w.VPs.Len())
	fmt.Printf("collection: %d records across %d collectors → %s\n",
		col.NumRecords(), len(collectors), *out)
	ofl.Done()
}

// parseScenario accepts the two snapshot dates the generator models; any
// other value is a usage error rather than a silent April 2021 world.
func parseScenario(s string) (topology.Scenario, error) {
	switch sc := topology.Scenario(s); sc {
	case topology.Apr2021, topology.Mar2023:
		return sc, nil
	}
	return "", fmt.Errorf("-scenario %s: no such scenario (have %s, %s)", s, topology.Apr2021, topology.Mar2023)
}

// writeDump writes one collector's base-day RIB to path.
func writeDump(path string, col *routing.Collection, collector string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = routing.ExportMRT(f, col, collector, 1617235200)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
