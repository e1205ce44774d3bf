//go:build !race

package countryrank

const raceEnabled = false
