//go:build !race

package hegemony_test

const raceEnabled = false
