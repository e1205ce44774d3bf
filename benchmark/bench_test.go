package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// The benchmark re-executes its own binary as the fixed-body server
	// and as the reference workload; under go test that binary is this one.
	if addr := os.Getenv(nullServerEnv); addr != "" {
		nullServer(addr)
		return
	}
	if os.Getenv(referenceEnv) != "" {
		referenceMain()
		return
	}
	os.Exit(m.Run())
}

// Expected values are Python's statistics.quantiles(v, n=4), the rule the
// driver applies to the benchmark's results.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		s := summarize(tc.in)
		if s.N != len(tc.in) || s.Q1 != tc.q1 || s.Median != tc.q2 || s.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v", tc.in, s, tc.q1, tc.q2, tc.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i)
		}
		return v
	}
	if _, ok := percentile(sorted(1000), 0.99); ok {
		t.Error("p99 of 1000 samples has 9 beyond it; must not be reported")
	}
	if v, ok := percentile(sorted(1100), 0.99); !ok || v != 1089 {
		t.Errorf("p99 of 1100 samples = %d, %v; want 1089, true", v, ok)
	}
	if v, ok := percentile(sorted(21), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 21 samples = %d, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of no samples must not be reported")
	}
}

func TestSpanSelfTimeAndPerPass(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0, Mallocs: 3},
		{Name: "b", Start: 15, End: 25, Parent: 1},
		{Name: "a", Start: 50, End: 70, Parent: 0, Mallocs: 4},
		{Name: "pass", Start: 100, End: 150, Parent: -1},
		{Name: "a", Start: 110, End: 115, Parent: 4, Mallocs: 1},
	}}
	for id, want := range map[int]time.Duration{0: 50, 1: 20, 2: 10, 4: 45} {
		if got := r.selfTime(id); got != want {
			t.Errorf("selfTime(%d) = %d, want %d", id, got, want)
		}
	}
	got := r.perPass("a")
	want := []passTotal{{50, 7}, {5, 1}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("perPass(a) = %v, want %v", got, want)
	}
	if got := r.perPass("absent"); got != nil {
		t.Errorf("perPass(absent) = %v, want none", got)
	}

	live := newRecorder("t")
	live.do("outer", func() { live.do("inner", func() {}) })
	if len(live.spans) != 2 || live.spans[1].Parent != 0 || live.spans[0].Parent != -1 {
		t.Fatalf("nesting not recorded: %+v", live.spans)
	}
	if o, i := live.spans[0], live.spans[1]; i.Start < o.Start || i.End > o.End {
		t.Errorf("inner %v–%v not within outer %v–%v", i.Start, i.End, o.Start, o.End)
	}
	var buf bytes.Buffer
	if err := live.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Name, Ph string }
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Ph != "X" {
		t.Errorf("chrome trace does not parse back to two complete events: %v %s", err, buf.Bytes())
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics,
// with the same units and directions, or the driver reads a result whose
// keys it does not expect.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkDef := func(kind string, got, want metricDef) {
		if got != want {
			t.Errorf("%s: BENCHMARK.json has %+v, the code emits %+v", kind, got, want)
		}
		if !name.MatchString(got.Name) || !unit.MatchString(got.Unit) || seen[got.Name] {
			t.Errorf("%s %+v: bad or repeated name, or bad unit", kind, got)
		}
		seen[got.Name] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, w, workloads[i].Name, workloads[i].Why)
		}
		checkDef("workload", metricDef{Name: w.Name, Unit: "-"}, metricDef{Name: workloads[i].Name, Unit: "-"})
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(f.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range f.EndToEnd {
		checkDef("end_to_end", m.metricDef, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s must be present with the largest bound; has %v, largest is %v", setupBound, maxBound)
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d (limit 128)", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		checkDef("per_layer", m, perLayer[i])
	}
}

// TestSmoke runs every workload, untraced and traced, on a world a tenth
// of W05's size for about a second each: every child starts, every oracle
// passes, every end-to-end metric gets a sample, and the result keeps the
// contract's shape.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the four binaries")
	}
	// The benchmark runs from the root of the checkout.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("benchmark")
	w := world{seed: 3, scale: 0.05, vpscale: 0.5}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res := runWorkload(wl, w, time.Second, traced, &out)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %+v\n%s", wl.Name, traced, res, out.Bytes())
				continue
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result, want %d", wl.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl.Name, traced, d.Name, m, d.Unit)
				}
				if !traced && res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s has no positive sample", wl.Name, d.Name)
				}
			}
			if traced {
				if v := res.Metrics["trace.overhead_pct"].Value; v <= 0 {
					t.Errorf("%s: trace.overhead_pct = %v, want > 0", wl.Name, v)
				}
			}
		}
	}
}
