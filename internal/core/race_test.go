//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a share of Puts on
// purpose, so allocation pins on pooled scratch cannot hold.
const raceEnabled = true
