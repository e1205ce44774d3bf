package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseFlags: a worker count or top-N bound below 1 is a usage error
// before any request is sent. -n 0 used to reach rand.Intn(0) on the first
// top-N request and panic every worker.
func TestParseFlags(t *testing.T) {
	def := config{
		base: "http://127.0.0.1:8080", duration: 10 * time.Second,
		conc: 8, reval: 0.5, maxN: 10, seed: 1,
	}
	with := func(f func(*config)) config {
		c := def
		f(&c)
		return c
	}
	for _, tc := range []struct {
		args string
		want config
		err  string // substring of the usage error; "" means accepted
	}{
		{"", def, ""},
		{"-url http://h:1 -duration 3s -conc 4 -n 1 -max-error-rate 0.5 -out F", with(func(c *config) {
			c.base, c.duration, c.conc, c.maxN, c.maxErrRate, c.out = "http://h:1", 3*time.Second, 4, 1, 0.5, "F"
		}), ""},
		{"-n 0", def, "-n 0"},
		{"-n -3", def, "-n -3"},
		{"-conc 0", def, "-conc 0"},
		{"-conc -1 -n 5", def, "-conc -1"},
		{"-nosuchflag", def, "not defined"},
	} {
		fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
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
