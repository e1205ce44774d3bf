// Command checkartifacts validates the run artifacts the obs layer exports:
// a provenance manifest (-manifest) and a Chrome trace (-trace). CI runs it
// against the files a real crank run wrote, so schema drift or an empty
// export fails the gate instead of shipping. It checks structure, not
// values: required manifest fields are present and plausible, the trace has
// at least one complete span event, and -require can demand optional
// manifest sections (seeds, coverage, sanitize_drops, inputs).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"countryrank/internal/obs"
)

func main() {
	manifestPath := flag.String("manifest", "", "run provenance manifest JSON to validate")
	tracePath := flag.String("trace", "", "Chrome trace-event JSON to validate")
	require := flag.String("require", "", "comma-separated optional manifest sections that must be present (seeds, coverage, sanitize_drops, inputs)")
	flag.Parse()
	if *manifestPath == "" && *tracePath == "" {
		fmt.Fprintln(os.Stderr, "usage: checkartifacts [-manifest FILE] [-trace FILE] [-require sections]")
		os.Exit(2)
	}
	ok := true
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "checkartifacts: "+format+"\n", args...)
		ok = false
	}
	if *manifestPath != "" {
		checkManifest(*manifestPath, *require, fail)
	}
	if *tracePath != "" {
		checkTrace(*tracePath, fail)
	}
	if !ok {
		os.Exit(1)
	}
	fmt.Println("checkartifacts: ok")
}

func checkManifest(path, require string, fail func(string, ...any)) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fail("manifest: %v", err)
		return
	}
	var m obs.RunManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		fail("manifest %s: not JSON: %v", path, err)
		return
	}
	if m.Schema != obs.ManifestSchema {
		fail("manifest %s: schema %d, want %d", path, m.Schema, obs.ManifestSchema)
	}
	if m.Cmd == "" {
		fail("manifest %s: empty cmd", path)
	}
	if _, err := time.Parse(time.RFC3339, m.Started); err != nil {
		fail("manifest %s: started timestamp %q: %v", path, m.Started, err)
	}
	if m.WallSeconds <= 0 {
		fail("manifest %s: wall_seconds = %v", path, m.WallSeconds)
	}
	if len(m.Flags) == 0 {
		fail("manifest %s: no flags recorded", path)
	}
	if m.Env.GoVersion == "" || m.Env.NumCPU <= 0 {
		fail("manifest %s: incomplete env: %+v", path, m.Env)
	}
	if len(m.Metrics) == 0 {
		fail("manifest %s: empty metrics snapshot", path)
	}
	if strings.TrimSpace(m.SpanTree) == "" {
		fail("manifest %s: empty span tree", path)
	}
	for _, section := range strings.Split(require, ",") {
		switch strings.TrimSpace(section) {
		case "":
		case "seeds":
			if len(m.Seeds) == 0 {
				fail("manifest %s: required seeds section missing", path)
			}
		case "coverage":
			if m.Coverage == nil {
				fail("manifest %s: required coverage section missing", path)
			} else if m.Coverage.VPsExpected <= 0 {
				fail("manifest %s: coverage.vps_expected = %d", path, m.Coverage.VPsExpected)
			}
		case "sanitize_drops":
			if m.SanitizeDrops == nil {
				fail("manifest %s: required sanitize_drops section missing", path)
			} else if m.SanitizeDrops.Total <= 0 {
				fail("manifest %s: sanitize_drops.total = %d", path, m.SanitizeDrops.Total)
			}
		case "inputs":
			if len(m.Inputs) == 0 {
				fail("manifest %s: required inputs section missing", path)
			}
		default:
			fail("unknown -require section %q", section)
		}
	}
}

// traceFile mirrors just enough of the Chrome trace-event schema to assert
// the export is loadable and non-trivial.
type traceFile struct {
	TraceEvents []struct {
		Name  string `json:"name"`
		Phase string `json:"ph"`
		Dur   int64  `json:"dur"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func checkTrace(path string, fail func(string, ...any)) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fail("trace: %v", err)
		return
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		fail("trace %s: not JSON: %v", path, err)
		return
	}
	complete := 0
	for _, ev := range tf.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		if ev.Name == "" {
			fail("trace %s: unnamed complete event", path)
			return
		}
		if ev.Dur < 1 {
			fail("trace %s: complete event %q has dur %d, want >= 1us", path, ev.Name, ev.Dur)
			return
		}
		complete++
	}
	if complete == 0 {
		fail("trace %s: no complete span events", path)
	}
}
