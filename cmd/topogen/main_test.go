package main

import (
	"strings"
	"testing"

	"countryrank/internal/topology"
)

// TestParseScenario: -scenario takes the paper's two measurement dates and
// nothing else; a typo is a usage error naming both, not a 2021 world.
func TestParseScenario(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want topology.Scenario
		err  string // substring of the usage error; "" means accepted
	}{
		{"20210401", topology.Apr2021, ""},
		{"20230301", topology.Mar2023, ""},
		{"bogus", "", "-scenario bogus: no such scenario (have 20210401, 20230301)"},
		{"2023-03-01", "", "-scenario 2023-03-01"},
		{"", "", "no such scenario"},
	} {
		got, err := parseScenario(tc.arg)
		switch {
		case tc.err == "" && (err != nil || got != tc.want):
			t.Errorf("%q: got %q, %v; want %q", tc.arg, got, err, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: error %v, want one naming %q", tc.arg, err, tc.err)
		}
	}
}
