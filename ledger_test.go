package countryrank

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"countryrank/internal/core"
	"countryrank/internal/obs"
	"countryrank/internal/routing"
	"countryrank/internal/snapshot"
	"countryrank/internal/topology"
)

// A workRow is one span of the ledger's measured pass: its path in the span
// tree, the items it reported, and the objects and bytes the heap handed out
// between its start and its end.
type workRow struct {
	path           string
	items          int64
	unit           string
	objects, bytes int64
	parent         int // row index, -1 for a root
}

const workGolden = "testdata/work.txt"

// The bands a measured row may sit within its golden row. Measured passes
// agree to a few objects and 0.001 % of bytes; one object more per trial,
// per path or per record is hundreds to hundreds of thousands.
func objectBand(n int64) int64 { return max(n*2/100, 16) }
func byteBand(n int64) int64   { return n / 100 }

// TestWorkLedger is the host-independent half of every performance claim:
// for each span the pipeline, the snapshot build, two stability sweeps and
// an MRT import open, the items it reports and the objects and bytes it
// allocates, at GOMAXPROCS=1 where all of them are deterministic. It renders
// testdata/work.txt (UPDATE_GOLDEN=1 rewrites it), requires items and units
// to match it exactly and allocations to stay within their bands, and
// requires the ledger to be additive: no span's children allocate more than
// the span itself, so no stage is recorded twice.
func TestWorkLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what every allocation costs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	var dumps []string
	pass := func() {
		p, err := core.Run(context.Background(), core.Generated, core.Options{Seed: 1, StubScale: 0.5, VPScale: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		snapshot.Build(p, 1, snapshot.Config{})
		for _, m := range []core.Metric{core.CCI, core.AHI} {
			p.Stability(m, "AU", []int{2, 4}, 100, 7)
		}
		if dumps == nil {
			dumps = writeDumps(t, p.Col)
		}
		if _, _, err := routing.ImportMRTFiles(&topology.World{VPs: p.VPs}, dumps, routing.ImportOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	pass() // warm: pools, lazily built tables and the dumps are not the pass's
	runtime.GC()
	rows := measureSpans(pass)
	got := renderLedger(rows)

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(workGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(workGolden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	want, err := parseLedger(string(text))
	if err != nil {
		t.Fatalf("%s: %v", workGolden, err)
	}

	wantOf := map[string]workRow{}
	for _, w := range want {
		wantOf[w.path] = w
	}
	for _, g := range rows {
		w, ok := wantOf[g.path]
		delete(wantOf, g.path)
		if !ok {
			t.Errorf("%s: no such row in %s", g.path, workGolden)
			continue
		}
		if g.items != w.items || g.unit != w.unit {
			t.Errorf("%s: %d %s, want %d %s", g.path, g.items, g.unit, w.items, w.unit)
		}
		if d := g.objects - w.objects; d > objectBand(w.objects) || -d > objectBand(w.objects) {
			t.Errorf("%s: %d objects, want %d ± %d", g.path, g.objects, w.objects, objectBand(w.objects))
		}
		if d := g.bytes - w.bytes; d > byteBand(w.bytes) || -d > byteBand(w.bytes) {
			t.Errorf("%s: %d bytes, want %d ± %d", g.path, g.bytes, w.bytes, byteBand(w.bytes))
		}
	}
	for _, w := range want {
		if _, ok := wantOf[w.path]; ok {
			t.Errorf("%s: in %s, but no span opened it", w.path, workGolden)
		}
	}

	for i, r := range rows {
		objs, nbytes := childSums(rows, i)
		if objs > r.objects+objectBand(r.objects) || nbytes > r.bytes+byteBand(r.bytes) {
			t.Errorf("%s: its children allocate %d objects and %d bytes, more than its own %d and %d; a stage is recorded twice",
				r.path, objs, nbytes, r.objects, r.bytes)
		}
	}
	if t.Failed() {
		t.Logf("ledger (UPDATE_GOLDEN=1 writes it to %s):\n%s", workGolden, got)
	}
}

// measureSpans runs f with the default trace's hooks reading the heap's
// counters as every span opens and closes, and returns one row per span f
// opened, in start order. A span's row includes the spans it contains;
// childSums gives their share.
func measureSpans(f func()) []workRow {
	var rows []workRow
	var open []int // the newest row at each depth
	rowOf := map[*obs.Span]int{}
	var ms runtime.MemStats
	tr := obs.DefaultTrace
	tr.OnStart = func(s *obs.Span) {
		r := workRow{path: s.Name, parent: -1}
		d := s.Depth()
		open = append(open[:d], len(rows))
		if d > 0 {
			r.parent = open[d-1]
			r.path = rows[r.parent].path + "/" + s.Name
		}
		rowOf[s] = len(rows)
		runtime.ReadMemStats(&ms)
		r.objects, r.bytes = -int64(ms.Mallocs), -int64(ms.TotalAlloc)
		rows = append(rows, r)
	}
	tr.OnEnd = func(s *obs.Span) {
		runtime.ReadMemStats(&ms)
		if i, ok := rowOf[s]; ok {
			rows[i].objects += int64(ms.Mallocs)
			rows[i].bytes += int64(ms.TotalAlloc)
			rows[i].items, rows[i].unit = s.Items()
		}
	}
	defer func() { tr.OnStart, tr.OnEnd = nil, nil }()
	f()
	return rows
}

// childSums adds up the objects and bytes of row i's direct children.
func childSums(rows []workRow, i int) (objects, nbytes int64) {
	for _, c := range rows[i+1:] {
		if c.parent == i {
			objects += c.objects
			nbytes += c.bytes
		}
	}
	return objects, nbytes
}

const ledgerHeader = `# Work ledger: what each span of one pass hands the heap, rendered by
# TestWorkLedger (refresh: UPDATE_GOLDEN=1 go test -run TestWorkLedger .).
# The pass, at GOMAXPROCS=1 after a warm pass and runtime.GC(), over the W05
# world (seed 1, scales 0.5/0.5): core.Run(Generated) and snapshot.Build,
# Stability of CCI and AHI in AU over {2, 4} VPs × 100 trials, and
# ImportMRTFiles of the world's dumps. items and unit are exact; objects hold
# to ±max(2 %, 16) and bytes to ±1 %. self is the span minus its children.
`

// renderLedger formats the rows, one per line: the span's path, then items,
// unit ("-" for none), objects, bytes, self objects and self bytes.
func renderLedger(rows []workRow) string {
	var b strings.Builder
	b.WriteString(ledgerHeader)
	fmt.Fprintf(&b, "#\n# %-20s %9s %-9s %8s %11s %8s %11s\n", "span", "items", "unit", "objects", "bytes", "self", "self bytes")
	for i, r := range rows {
		objs, nbytes := childSums(rows, i)
		fmt.Fprintf(&b, "%-22s %9d %-9s %8d %11d %8d %11d\n",
			r.path, r.items, cmp.Or(r.unit, "-"), r.objects, r.bytes, r.objects-objs, r.bytes-nbytes)
	}
	return b.String()
}

// parseLedger reads back what renderLedger wrote; the self columns are
// derived and not returned.
func parseLedger(text string) ([]workRow, error) {
	var rows []workRow
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 7 {
			return nil, fmt.Errorf("short row %q", line)
		}
		f, nums := f[:len(f)-6], f[len(f)-6:]
		r := workRow{path: strings.Join(f, " "), unit: nums[1]}
		if r.unit == "-" {
			r.unit = ""
		}
		var err error
		for _, v := range []struct {
			dst *int64
			s   string
		}{{&r.items, nums[0]}, {&r.objects, nums[2]}, {&r.bytes, nums[3]}} {
			if *v.dst, err = strconv.ParseInt(v.s, 10, 64); err != nil {
				return nil, fmt.Errorf("row %q: %v", line, err)
			}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// writeDumps exports one TABLE_DUMP_V2 file per collector of col's world.
func writeDumps(t *testing.T, col *routing.Collection) []string {
	dir := t.TempDir()
	var paths []string
	for _, c := range col.VPs.Collectors() {
		var buf bytes.Buffer
		if err := routing.ExportMRT(&buf, col, c.Name, 1617235200); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, c.Name+".mrt")
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}
