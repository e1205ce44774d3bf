package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"countryrank/internal/obs"
)

// TestCatalogueGolden renders the operator's ledger from the two places
// that define it — the flag set registerFlags builds for main, and the
// Default registry with exactly the packages rankd links — and compares it
// with testdata/catalogue.txt, which README and the package comment point
// at instead of keeping tables by hand. Each line ends in the files that
// read the entry (readerFiles); a flag or series nothing reads fails here,
// on the day its last reader is removed, and is deleted rather than kept by
// mentioning it somewhere. A flag or series added, renamed, retyped or
// re-described shows up as a diff of the golden; one registered without a
// help string, or under a name the registry would reject, fails too.
func TestCatalogueGolden(t *testing.T) {
	files := readerFiles(t)
	readBy := func(pattern string) string {
		re := regexp.MustCompile(pattern)
		var by []string
		for _, f := range files {
			if re.MatchString(f.text) {
				by = append(by, f.path)
			}
		}
		if len(by) == 0 {
			return ""
		}
		return " · read by: " + strings.Join(by, ", ")
	}
	var b strings.Builder
	var unread []string

	flags := flag.NewFlagSet("rankd", flag.ContinueOnError)
	registerFlags(flags)
	b.WriteString("# rankd flags: name · default · usage · read by\n")
	flags.VisitAll(func(f *flag.Flag) {
		// "-addr" must not be found inside "-debug-addr".
		by := readBy(`(?m)(^|[^\w-])-` + regexp.QuoteMeta(f.Name) + `($|[^\w-])`)
		if by == "" {
			unread = append(unread, "-"+f.Name)
		}
		fmt.Fprintf(&b, "-%s · %q · %s%s\n", f.Name, f.DefValue, f.Usage, by)
	})

	// The runtime series register when a cmd starts.
	obs.EnableRuntimeMetrics()

	var prom strings.Builder
	if err := obs.Default.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	b.WriteString("\n# metric series: name · type · help · read by\n")
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
			if strings.HasPrefix(name, "countryrank_collector_") {
				t.Errorf("series %s is in rankd's catalogue, but rankd does not link internal/collector", name)
			}
			by := readBy(`\b` + name + `(_count|_sum|_bucket)?\b`)
			if by == "" {
				unread = append(unread, name)
			}
			fmt.Fprintf(&b, "%s · %s · %s%s\n", name, typ, help[name], by)
		}
	}

	if len(unread) > 0 {
		t.Errorf("%d entries have no reader in ci.sh, README, the verify skill, benchmark/, loadgen or any test; delete them with what feeds them:\n%s",
			len(unread), strings.Join(unread, "\n"))
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

type readerFile struct{ path, text string }

// readerFiles loads, with paths relative to the repository root and in a
// fixed order, every file where a use of a flag or series counts as its
// reader: CI's assertions, the README's runbook sentences, the verify
// skill, the benchmark's and loadgen's scrapes, and every test but this one.
func readerFiles(t *testing.T) []readerFile {
	const root = "../.."
	paths := []string{"scripts/ci.sh", "README.md", ".claude/skills/verify/SKILL.md"}
	bench, err := filepath.Glob(root + "/benchmark/*.go")
	if err != nil || len(bench) == 0 {
		t.Fatalf("no benchmark sources under %s/benchmark: %v", root, err)
	}
	for _, p := range bench {
		paths = append(paths, strings.TrimPrefix(p, root+"/"))
	}
	paths = append(paths, "cmd/loadgen/main.go")
	var tests []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, .bench_build: no sources
		}
		rel := strings.TrimPrefix(p, root+"/")
		if err == nil && strings.HasSuffix(rel, "_test.go") &&
			!strings.HasPrefix(rel, "benchmark/") && rel != "cmd/rankd/catalogue_test.go" {
			tests = append(tests, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(tests)
	var files []readerFile
	for _, p := range append(paths, tests...) {
		text, err := os.ReadFile(filepath.Join(root, p))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, readerFile{p, string(text)})
	}
	return files
}
