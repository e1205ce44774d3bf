//go:build !race

package cone_test

const raceEnabled = false
