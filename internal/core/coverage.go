package core

import (
	"fmt"

	"countryrank/internal/obs"
)

// Coverage reports how complete a collection was when it reached the
// pipeline: the contract between a Source (generator, MRT import, in-hand
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
	// RecordsLost counts records dropped during ingest (for MRT, the
	// entries of peers outside the world).
	RecordsLost int64
}

// Degraded reports whether any data was lost: missing VPs or dropped
// records.
func (c Coverage) Degraded() bool {
	return c.VPsDelivered < c.VPsExpected || c.RecordsLost > 0
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
	return fmt.Sprintf("%d/%d VPs, %d records lost",
		c.VPsDelivered, c.VPsExpected, c.RecordsLost)
}

// Info converts the report to its run-manifest form.
func (c Coverage) Info() obs.CoverageInfo {
	return obs.CoverageInfo{
		VPsExpected:  c.VPsExpected,
		VPsDelivered: c.VPsDelivered,
		RecordsLost:  c.RecordsLost,
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
