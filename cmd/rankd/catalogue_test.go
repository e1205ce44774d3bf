package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	_ "countryrank/internal/collector" // the one metric-registering package rankd does not link
	"countryrank/internal/obs"
)

// TestCatalogueGolden renders the operator's catalogue from the two places
// that define it — the flag set registerFlags builds for main, and the
// Default registry with every metric-registering package linked in — and
// compares it with testdata/catalogue.txt, which README and the package
// comment point at instead of keeping tables by hand. A flag or series
// added, renamed, retyped or re-described shows up as a diff of that file;
// one registered without a help string, or under a name the registry would
// reject, fails here.
func TestCatalogueGolden(t *testing.T) {
	var b strings.Builder

	fs := flag.NewFlagSet("rankd", flag.ContinueOnError)
	registerFlags(fs)
	b.WriteString("# rankd flags: name · default · usage\n")
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&b, "-%s · %q · %s\n", f.Name, f.DefValue, f.Usage)
	})

	// The runtime series register when a cmd starts.
	obs.EnableRuntimeMetrics()

	var prom strings.Builder
	if err := obs.Default.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	b.WriteString("\n# metric series: name · type · help\n")
	help := map[string]string{}
	for _, line := range strings.Split(prom.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if err := obs.CheckName(name); err != nil {
				t.Error(err)
			}
			if help[name] == "" {
				t.Errorf("series %s is registered without a help string", name)
			}
			fmt.Fprintf(&b, "%s · %s · %s\n", name, typ, help[name])
		}
	}

	const golden = "testdata/catalogue.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("catalogue differs from %s; got:\n%s", golden, got)
	}
}
