package obs

import (
	"strings"
	"testing"
	"time"
)

func TestCheckName(t *testing.T) {
	valid := []string{
		"countryrank_test_records_total",
		"countryrank_test_kernel_seconds",
		"countryrank_test_workers_busy",
		"countryrank_x:y_total",
	}
	for _, n := range valid {
		if err := CheckName(n); err != nil {
			t.Errorf("CheckName(%q) = %v, want nil", n, err)
		}
	}
	invalid := []string{
		"",
		"sanitize_records_total",    // missing prefix
		"Countryrank_records_total", // wrong-case prefix
		"countryrank_records-total", // hyphen
		"countryrank_records total", // space
		"countryrank_récords_total", // non-ASCII
	}
	for _, n := range invalid {
		if err := CheckName(n); err == nil {
			t.Errorf("CheckName(%q) = nil, want error", n)
		}
	}
}

func TestRegistryTypeClash(t *testing.T) {
	r := &Registry{}
	r.Counter("countryrank_test_clash_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge over a counter should panic")
		}
	}()
	r.Gauge("countryrank_test_clash_total", "")
}

func TestRegistryIdempotent(t *testing.T) {
	r := &Registry{}
	a := r.Counter("countryrank_test_idem_total", "help")
	b := r.Counter("countryrank_test_idem_total", "other help")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
}

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3) // coerced to zero: counters never go down
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("Value = %d, want 6", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := &Registry{}
	h := r.Histogram("countryrank_test_hist_seconds", "", []float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(2 * time.Second)        // overflows into +Inf only
	if got := h.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	cum := h.snapshot()
	want := []int64{1, 3, 3, 4} // cumulative: le=0.001, le=0.01, le=0.1, +Inf
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", cum, want)
		}
	}
	wantSum := 0.0005 + 0.005 + 0.005 + 2
	if diff := h.Sum() - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Sum = %g, want %g", h.Sum(), wantSum)
	}
}

// TestWritePrometheusGolden pins the exposition format: HELP/TYPE comments,
// lexicographic metric order, cumulative histogram buckets with a +Inf
// terminal, and _sum/_count series.
func TestWritePrometheusGolden(t *testing.T) {
	r := &Registry{}
	c := r.Counter("countryrank_test_records_total", "records seen")
	c.Add(42)
	g := r.Gauge("countryrank_test_busy", "busy workers")
	g.Set(3)
	h := r.Histogram("countryrank_test_run_seconds", "run duration", []float64{0.5, 1})
	h.Observe(250 * time.Millisecond)
	h.Observe(2 * time.Second)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP countryrank_test_busy busy workers
# TYPE countryrank_test_busy gauge
countryrank_test_busy 3
# HELP countryrank_test_records_total records seen
# TYPE countryrank_test_records_total counter
countryrank_test_records_total 42
# HELP countryrank_test_run_seconds run duration
# TYPE countryrank_test_run_seconds histogram
countryrank_test_run_seconds_bucket{le="0.5"} 1
countryrank_test_run_seconds_bucket{le="1"} 1
countryrank_test_run_seconds_bucket{le="+Inf"} 2
countryrank_test_run_seconds_sum 2.25
countryrank_test_run_seconds_count 2
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	r := &Registry{}
	r.Counter("countryrank_test_snap_total", "").Add(7)
	h := r.Histogram("countryrank_test_snap_seconds", "", []float64{1})
	h.Observe(time.Second / 2)
	snap := r.Snapshot()
	if got := snap["countryrank_test_snap_total"]; got != int64(7) {
		t.Errorf("counter in snapshot = %v, want 7", got)
	}
	if got := snap["countryrank_test_snap_seconds_count"]; got != int64(1) {
		t.Errorf("histogram count in snapshot = %v, want 1", got)
	}
	if got := snap["countryrank_test_snap_seconds_sum"]; got != 0.5 {
		t.Errorf("histogram sum in snapshot = %v, want 0.5", got)
	}
}

func TestSpanTree(t *testing.T) {
	tr := &Trace{}
	root := tr.Start("pipeline")
	child := tr.Start("sanitize")
	child.AddItems(100, "records")
	child.End()
	fan := root.Child("kernels")
	fan.AddItems(4, "")
	fan.End()
	root.End()

	if root.Depth() != 0 || child.Depth() != 1 || fan.Depth() != 1 {
		t.Fatalf("depths: root=%d child=%d fan=%d", root.Depth(), child.Depth(), fan.Depth())
	}
	if n, unit := root.TotalItems(); n != 104 || unit != "records" {
		t.Fatalf("TotalItems = %d %q, want 104 records", n, unit)
	}
	out := tr.Render()
	for _, frag := range []string{"pipeline", "sanitize", "kernels", "[100 records", "/s]", "%"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Render missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "(open)") {
		t.Errorf("all spans ended but Render shows open:\n%s", out)
	}
}

func TestSpanHooks(t *testing.T) {
	tr := &Trace{}
	var started, ended []string
	tr.OnStart = func(s *Span) { started = append(started, s.Name) }
	tr.OnEnd = func(s *Span) { ended = append(ended, s.Name) }
	a := tr.Start("a")
	b := tr.Start("b")
	b.End()
	a.End()
	if strings.Join(started, ",") != "a,b" {
		t.Errorf("OnStart order = %v", started)
	}
	if strings.Join(ended, ",") != "b,a" {
		t.Errorf("OnEnd order = %v", ended)
	}
}

// TestSpanCurrentRestored checks the nesting invariant: after a child ends,
// new spans parent to the still-open ancestor, not to the closed child.
func TestSpanCurrentRestored(t *testing.T) {
	tr := &Trace{}
	root := tr.Start("root")
	tr.Start("first").End()
	second := tr.Start("second")
	if second.Depth() != 1 {
		t.Fatalf("second should nest under root, depth=%d", second.Depth())
	}
	second.End()
	root.End()
	next := tr.Start("next-root")
	if next.Depth() != 0 {
		t.Fatalf("span after root ended should be a root, depth=%d", next.Depth())
	}
	next.End()
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0.5:  "0.5",
		1:    "1",
		10:   "10",
		2.25: "2.25",
		1e15: "1e+15",
	}
	for f, want := range cases {
		if got := FormatFloat(f); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", f, got, want)
		}
	}
}
