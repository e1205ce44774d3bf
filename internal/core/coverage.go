package core

import (
	"fmt"

	"countryrank/internal/obs"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

var (
	mDegradedRuns = obs.NewCounter("countryrank_core_degraded_runs_total",
		"pipeline runs processed with incomplete coverage")
	mQuorumFailures = obs.NewCounter("countryrank_core_quorum_failures_total",
		"pipeline runs refused because coverage fell below quorum")
)

// Coverage reports how complete a collection was when it reached the
// pipeline: the contract between the fault-tolerant ingest paths (live
// collection, degraded MRT import) and the ranking consumer. A partial run
// is allowed — resilience would be pointless otherwise — but never silent:
// rankings computed from degraded coverage carry a label saying so, and
// coverage below the quorum fails the run outright.
type Coverage struct {
	// VPsExpected is how many vantage points the run was configured to
	// collect from; VPsDelivered how many actually produced records.
	VPsExpected  int
	VPsDelivered int
	// RecordsLost counts records dropped during ingest (rejected entries,
	// truncated feeds); Resyncs and SkippedBytes account corrupt MRT
	// records skipped by the reader's resync scan.
	RecordsLost  int64
	Resyncs      int64
	SkippedBytes int64
	// Reconnects counts feeder reconnects during live collection. Reconnects
	// alone do not make a run degraded — the resume protocol guarantees the
	// delivered tables are exact — but they belong in the report.
	Reconnects int64
}

// Degraded reports whether any data was lost: missing VPs, dropped records,
// or skipped corrupt input.
func (c Coverage) Degraded() bool {
	return c.VPsDelivered < c.VPsExpected || c.RecordsLost > 0 || c.Resyncs > 0
}

// Fraction is the delivered share of expected VPs (1 when none were
// expected: a run with no stated expectation cannot miss it).
func (c Coverage) Fraction() float64 {
	if c.VPsExpected <= 0 {
		return 1
	}
	return float64(c.VPsDelivered) / float64(c.VPsExpected)
}

// String renders the report for labels and errors.
func (c Coverage) String() string {
	return fmt.Sprintf("%d/%d VPs, %d records lost, %d resyncs",
		c.VPsDelivered, c.VPsExpected, c.RecordsLost, c.Resyncs)
}

// Info converts the report to its run-manifest form.
func (c Coverage) Info() obs.CoverageInfo {
	return obs.CoverageInfo{
		VPsExpected:  c.VPsExpected,
		VPsDelivered: c.VPsDelivered,
		RecordsLost:  c.RecordsLost,
		Resyncs:      c.Resyncs,
		SkippedBytes: c.SkippedBytes,
		Reconnects:   c.Reconnects,
		Degraded:     c.Degraded(),
	}
}

// CoverageInfo reports the pipeline's coverage for the run manifest: the
// recorded partial-coverage report when one exists, otherwise a complete
// run over every VP of the world.
func (p *Pipeline) CoverageInfo() obs.CoverageInfo {
	if p.Coverage != nil {
		return p.Coverage.Info()
	}
	n := p.World.VPs.Len()
	return obs.CoverageInfo{VPsExpected: n, VPsDelivered: n}
}

// CoverageFromImport assembles the report for a degraded MRT ingest:
// delivered VPs are counted from the collection, losses come from the
// import stats.
func CoverageFromImport(vpsExpected int, col *routing.Collection, stats routing.ImportStats) Coverage {
	seen := map[int32]bool{}
	for _, r := range col.Records {
		seen[r.VP] = true
	}
	return Coverage{
		VPsExpected:  vpsExpected,
		VPsDelivered: len(seen),
		RecordsLost:  stats.Rejects,
		Resyncs:      stats.Resyncs,
		SkippedBytes: stats.SkippedBytes,
	}
}

// NewPipelineFromPartial processes a possibly-incomplete collection. It is
// the loud-failure gate of the degraded path: coverage below the quorum
// (Options.Quorum) returns an error instead of a quietly wrong ranking;
// coverage above it proceeds, with every ranking name labelled when data
// was actually lost.
func NewPipelineFromPartial(w *topology.World, col *routing.Collection, cov Coverage, opt Options) (*Pipeline, error) {
	opt = opt.withDefaults()
	if cov.Fraction() < opt.Quorum {
		mQuorumFailures.Inc()
		return nil, fmt.Errorf("core: coverage %s below quorum %.0f%%", cov, opt.Quorum*100)
	}
	sp := obs.StartSpan("pipeline")
	defer sp.End()
	p := process(w, col, opt, sp)
	p.Coverage = &cov
	if cov.Degraded() {
		mDegradedRuns.Inc()
	}
	return p, nil
}

// label suffixes a ranking name with the degradation report, so a ranking
// computed from partial data can never be mistaken for the real thing.
func (p *Pipeline) label(name string) string {
	if p.Coverage == nil || !p.Coverage.Degraded() {
		return name
	}
	return fmt.Sprintf("%s [degraded: %s]", name, *p.Coverage)
}
