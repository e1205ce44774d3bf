//go:build !race

package cti_test

const raceEnabled = false
