//go:build race

package countryrank

// raceEnabled: the race detector instruments every allocation and sync.Pool
// drops a share of Puts on purpose, so the work ledger's counts cannot hold.
const raceEnabled = true
