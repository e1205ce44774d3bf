package core

import (
	"fmt"

	"countryrank/internal/obs"
)

// Coverage reports how complete a collection was when it reached the
// pipeline: the contract between a Source (generator, MRT import, live
// collection) and the ranking consumer, enforced by Run. A partial run
// is allowed — resilience would be pointless otherwise — but never silent:
// rankings computed from degraded coverage carry a label saying so, and
// coverage below the quorum fails the run outright.
type Coverage struct {
	// VPsExpected is how many vantage points the run was configured to
	// collect from; VPsDelivered how many the input covers (for MRT, the
	// VPs its peer index tables list: a covered VP may own no record).
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

// label suffixes a ranking name with the degradation report, so a ranking
// computed from partial data can never be mistaken for the real thing.
func (p *Pipeline) label(name string) string {
	if !p.Coverage.Degraded() {
		return name
	}
	return fmt.Sprintf("%s [degraded: %s]", name, p.Coverage)
}
