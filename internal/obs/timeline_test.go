package obs

import (
	"strings"
	"testing"
	"time"
)

// TestTimelineSampling drives a counter while a fast timeline samples it
// and checks the series is non-empty, aligned, and non-decreasing.
func TestTimelineSampling(t *testing.T) {
	r := &Registry{}
	c := r.Counter("countryrank_test_tl_total", "")
	g := r.Gauge("countryrank_test_tl_busy", "")
	tl := NewTimeline(r, time.Millisecond, 128)
	tl.Start()
	for i := 0; i < 50; i++ {
		c.Inc()
		g.Set(int64(i % 5))
		time.Sleep(500 * time.Microsecond)
	}
	tl.Stop()
	tl.Stop() // idempotent

	d := tl.Snapshot()
	if d.IntervalSeconds != 0.001 {
		t.Errorf("IntervalSeconds = %v", d.IntervalSeconds)
	}
	series := d.Series["countryrank_test_tl_total"]
	if len(series) < 2 {
		t.Fatalf("series too short: %d samples", len(series))
	}
	if len(d.OffsetsMS) != len(series) {
		t.Fatalf("offsets (%d) misaligned with series (%d)", len(d.OffsetsMS), len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Fatalf("counter series decreased at %d: %v", i, series)
		}
		if d.OffsetsMS[i] < d.OffsetsMS[i-1] {
			t.Fatalf("offsets not monotonic at %d: %v", i, d.OffsetsMS)
		}
	}
	// Stop takes a final sample, so the last value is the end state.
	if last := series[len(series)-1]; last != 50 {
		t.Errorf("final sample = %v, want 50", last)
	}
	if first := series[0]; first != 0 {
		t.Errorf("baseline sample = %v, want 0", first)
	}
}

// TestTimelineRing checks the ring buffer drops oldest samples and reports
// the drop count once capacity is exceeded.
func TestTimelineRing(t *testing.T) {
	r := &Registry{}
	c := r.Counter("countryrank_test_ring_total", "")
	tl := NewTimeline(r, time.Hour, 4, "countryrank_test_ring_total")
	tl.start = time.Now()
	for i := 0; i < 10; i++ {
		c.Inc()
		tl.sample()
	}
	d := tl.Snapshot()
	series := d.Series["countryrank_test_ring_total"]
	if len(series) != 4 {
		t.Fatalf("ring kept %d samples, want 4", len(series))
	}
	if d.DroppedSamples != 6 {
		t.Errorf("DroppedSamples = %d, want 6", d.DroppedSamples)
	}
	// Oldest-first: the 4 newest samples are counter values 7..10.
	want := []float64{7, 8, 9, 10}
	for i, v := range want {
		if series[i] != v {
			t.Fatalf("series = %v, want %v", series, want)
		}
	}
}

// TestTimelineSelectedNames checks name filtering and missing-name safety.
func TestTimelineSelectedNames(t *testing.T) {
	r := &Registry{}
	r.Counter("countryrank_test_sel_a_total", "").Add(5)
	r.Counter("countryrank_test_sel_b_total", "").Add(9)
	tl := NewTimeline(r, time.Hour, 8,
		"countryrank_test_sel_a_total", "countryrank_test_sel_missing_total")
	tl.start = time.Now()
	tl.sample()
	d := tl.Snapshot()
	if len(d.Series) != 2 {
		t.Fatalf("series = %v, want exactly the 2 selected names", d.Series)
	}
	if got := d.Series["countryrank_test_sel_a_total"][0]; got != 5 {
		t.Errorf("selected series sample = %v, want 5", got)
	}
	if got := d.Series["countryrank_test_sel_missing_total"][0]; got != 0 {
		t.Errorf("missing metric should sample as 0, got %v", got)
	}
	if _, ok := d.Series["countryrank_test_sel_b_total"]; ok {
		t.Error("unselected metric leaked into the timeline")
	}
}

// TestTimelineSparkline checks the terminal rendering mentions each series
// and draws blocks.
func TestTimelineSparkline(t *testing.T) {
	r := &Registry{}
	c := r.Counter("countryrank_test_spark_total", "")
	tl := NewTimeline(r, time.Hour, 64, "countryrank_test_spark_total")
	tl.start = time.Now()
	for i := 0; i < 16; i++ {
		c.Add(int64(i))
		tl.sample()
	}
	out := tl.Sparkline()
	if !strings.Contains(out, "countryrank_test_spark_total") {
		t.Errorf("sparkline missing series name:\n%s", out)
	}
	if !strings.ContainsRune(out, '▁') || !strings.ContainsRune(out, '█') {
		t.Errorf("sparkline missing min/max blocks:\n%s", out)
	}
}
