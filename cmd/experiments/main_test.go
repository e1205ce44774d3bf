package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestParseFlags(t *testing.T) {
	def := config{seed: 1, scale: 1, vpscale: 1, trials: 8, only: map[string]bool{}}
	with := func(f func(*config)) config {
		c := def
		c.only = map[string]bool{}
		f(&c)
		return c
	}
	for _, tc := range []struct {
		args string
		want config
		err  string // substring of the usage error; "" means accepted
	}{
		{"", def, ""},
		{"-seed 101 -scale 0.5 -vpscale 0.5 -only figure4,figure5 -trials 48", // the benchmark's line
			with(func(c *config) {
				c.seed, c.scale, c.vpscale, c.trials = 101, 0.5, 0.5, 48
				c.only["figure4"], c.only["figure5"] = true, true
			}), ""},
		{"-only Figure4,,table13_14, ", with(func(c *config) { c.only["figure4"], c.only["table13_14"] = true, true }), ""},
		{"-quick", with(func(c *config) { c.scale, c.vpscale, c.trials = 0.3, 0.4, 3 }), ""},
		{"-quick -trials 5", with(func(c *config) { c.scale, c.vpscale, c.trials = 0.3, 0.4, 5 }), ""},
		{"-scale 1 -quick", with(func(c *config) { c.scale, c.vpscale, c.trials = 1, 0.4, 3 }), ""},
		{"-vpscale 0.2 -quick -scale 0.1 -trials 1", with(func(c *config) { c.scale, c.vpscale, c.trials = 0.1, 0.2, 1 }), ""},
		{"-only figure44", def, "-only figure44"},
		{"-only figure4,figure2", def, "-only figure2"},
		{"-trials 0", def, "-trials 0"},
		{"-trials -1", def, "-trials -1"},
		{"-quick -trials 0", def, "-trials 0"},
		{"-nosuchflag", def, "not defined"},
	} {
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		got, _, err := parseFlags(fs, strings.Fields(tc.args))
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.args, err)
		case tc.err == "" && !reflect.DeepEqual(got, tc.want):
			t.Errorf("%q: parsed %+v, want %+v", tc.args, got, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: error %v, want one naming %q", tc.args, err, tc.err)
		}
	}
}
