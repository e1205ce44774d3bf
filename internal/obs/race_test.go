// External test package: these tests drive the registry and the trace
// through par.ForEach, the fan-out the pipeline's stages use.
package obs_test

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"countryrank/internal/obs"
	"countryrank/internal/par"
)

// TestConcurrentWriters hammers one counter, one gauge, and one histogram
// from a parallel loop while a goroutine concurrently snapshots and renders
// the registry. Run under -race this exercises every lock-free write path
// against the locked read paths.
func TestConcurrentWriters(t *testing.T) {
	r := &obs.Registry{}
	c := r.Counter("countryrank_test_race_total", "")
	g := r.Gauge("countryrank_test_race_busy", "")
	h := r.Histogram("countryrank_test_race_seconds", "", nil)

	const n = 2000
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			r.Snapshot()
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	par.ForEach(n, func(i int) {
		c.Inc()
		g.Set(int64(i))
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	})
	close(done)
	wg.Wait()

	if got := c.Value(); got != n {
		t.Errorf("counter = %d, want %d", got, n)
	}
	if got := g.Value(); got < 0 || got >= n {
		t.Errorf("gauge = %d, want one of the values set, in [0, %d)", got, n)
	}
	if got := h.Count(); got != n {
		t.Errorf("histogram count = %d, want %d", got, n)
	}
}

// TestConcurrentRegistration races metric registration for the same and
// distinct names against exposition.
func TestConcurrentRegistration(t *testing.T) {
	r := &obs.Registry{}
	names := []string{
		"countryrank_test_reg_a_total",
		"countryrank_test_reg_b_total",
		"countryrank_test_reg_c_total",
	}
	par.ForEach(64, func(i int) {
		r.Counter(names[i%len(names)], "help").Inc()
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Error(err)
		}
	})
	snap := r.Snapshot()
	var total int64
	for _, n := range names {
		v, ok := snap[n].(int64)
		if !ok {
			t.Fatalf("metric %s missing from snapshot", n)
		}
		total += v
	}
	if total != 64 {
		t.Errorf("total increments = %d, want 64", total)
	}
}

// TestConcurrentSpans attaches children and item counts to one span from a
// parallel loop while another goroutine renders the trace.
func TestConcurrentSpans(t *testing.T) {
	tr := &obs.Trace{}
	root := tr.Start("fanout")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = tr.Render()
			_, _ = root.TotalItems()
		}
	}()
	par.ForEach(256, func(i int) {
		c := root.Child("task")
		c.AddItems(1, "tasks")
		c.End()
	})
	close(done)
	wg.Wait()
	root.End()
	if n, unit := root.TotalItems(); n != 256 || unit != "tasks" {
		t.Errorf("TotalItems = %d %q, want 256 tasks", n, unit)
	}
}
