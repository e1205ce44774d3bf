package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a settable time source for window tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testSLOConfig(clk *fakeClock) SLOConfig {
	return SLOConfig{
		Availability:  0.99,                                         // 1% error budget
		LatencyTarget: 0.9, LatencyThreshold: 10 * time.Millisecond, // 10% budget
		Bucket: time.Second, FastWindow: 5 * time.Second, SlowWindow: 10 * time.Second,
		TripFastBurn: 2,
		Clock:        clk.Now,
	}
}

func approx(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

// TestSLOBurnMath drives hand-computed traffic through one bucket:
//
//	100 non-304 responses: 2 are 5xx, 3 breach the 10ms threshold.
//	availability burn = (2/100) / (1-0.99)  = 2.0
//	latency burn      = (3/100) / (1-0.9)   = 0.3
//
// Then 50 extra 304s join the availability population but must stay out of
// the latency population:
//
//	availability burn = (2/150) / 0.01      = 4/3
//	latency burn unchanged at 0.3 over 100 eligible.
func TestSLOBurnMath(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(testSLOConfig(clk))
	for i := 0; i < 95; i++ {
		s.Record(AccessEvent{Status: 200, Latency: time.Millisecond})
	}
	s.Record(AccessEvent{Status: 500, Latency: time.Millisecond})
	s.Record(AccessEvent{Status: 503, Latency: time.Millisecond})
	for i := 0; i < 3; i++ {
		s.Record(AccessEvent{Status: 200, Latency: 20 * time.Millisecond})
	}

	availFast, availSlow, latFast, latSlow := s.Burns()
	if !approx(availFast, 2.0) || !approx(availSlow, 2.0) {
		t.Errorf("availability burn = %g/%g, want 2.0/2.0", availFast, availSlow)
	}
	if !approx(latFast, 0.3) || !approx(latSlow, 0.3) {
		t.Errorf("latency burn = %g/%g, want 0.3/0.3", latFast, latSlow)
	}

	for i := 0; i < 50; i++ {
		s.Record(AccessEvent{Status: 304})
	}
	availFast, _, latFast, _ = s.Burns()
	if !approx(availFast, 2.0/150*100) {
		t.Errorf("availability burn with 304s = %g, want %g", availFast, 2.0/150*100)
	}
	if !approx(latFast, 0.3) {
		t.Errorf("latency burn moved to %g after 304s, want 0.3", latFast)
	}

	st := s.Status()
	if st.Objectives[1].Fast.Total != 100 {
		t.Errorf("latency population = %d, want 100 (304s excluded)", st.Objectives[1].Fast.Total)
	}
	if st.Objectives[0].Fast.Total != 150 || st.Objectives[0].Fast.Bad != 2 {
		t.Errorf("availability fast = %+v", st.Objectives[0].Fast)
	}
	// Availability burn 4/3 sits below the trip threshold of 2.
	if st.Degraded {
		t.Errorf("degraded at burn %g < trip 2: %s", 2.0/150*100, st.Reason)
	}
}

// TestSLOWindowAging checks breaches age out of the fast window before the
// slow window, with no traffic needed to recover: burst 10 errors, then
// just move the clock.
func TestSLOWindowAging(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(testSLOConfig(clk))
	for i := 0; i < 10; i++ {
		s.Record(AccessEvent{Status: 500, Latency: time.Millisecond})
	}
	if _, degraded := s.Degraded(); !degraded {
		t.Fatal("10/10 errors did not trip the fast burn")
	}

	clk.Advance(3 * time.Second) // burst still inside the 5s fast window
	if availFast, _, _, _ := s.Burns(); !approx(availFast, 100) {
		t.Errorf("fast burn at +3s = %g, want 100", availFast)
	}

	clk.Advance(3 * time.Second) // +6s: out of fast, still inside slow
	availFast, availSlow, _, _ := s.Burns()
	if availFast != 0 {
		t.Errorf("fast burn at +6s = %g, want 0 (burst aged out)", availFast)
	}
	if !approx(availSlow, 100) {
		t.Errorf("slow burn at +6s = %g, want 100", availSlow)
	}
	if reason, degraded := s.Degraded(); degraded {
		t.Errorf("still degraded at +6s: %s", reason)
	}

	clk.Advance(6 * time.Second) // +12s: out of the 10s slow window too
	if _, availSlow, _, _ := s.Burns(); availSlow != 0 {
		t.Errorf("slow burn at +12s = %g, want 0", availSlow)
	}
}

// TestSLOBucketRecycling checks what the window promises about old buckets:
// a bucket that fell out of the window never counts, and laps of traffic
// beyond the slow window never leave stale counts behind.
func TestSLOBucketRecycling(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(testSLOConfig(clk))
	for i := 0; i < 5; i++ {
		s.Record(AccessEvent{Status: 500, Latency: time.Millisecond})
	}
	clk.Advance(11 * time.Second) // past the 10s slow window
	s.Record(AccessEvent{Status: 200, Latency: time.Millisecond})
	tot, errs, _, _ := s.sums(s.cfg.SlowWindow)
	if tot != 1 || errs != 0 {
		t.Errorf("after the window passed: total=%d errors=%d, want 1/0", tot, errs)
	}

	// Three laps of the slow window, one error per bucket: only the last
	// window's ten buckets may count.
	for i := 0; i < 30; i++ {
		clk.Advance(time.Second)
		s.Record(AccessEvent{Status: 500, Latency: time.Millisecond})
	}
	if tot, errs, _, _ := s.sums(s.cfg.SlowWindow); tot != 10 || errs != 10 {
		t.Errorf("after three laps: slow total=%d errors=%d, want 10/10", tot, errs)
	}
	if tot, _, _, _ := s.sums(s.cfg.FastWindow); tot != 5 {
		t.Errorf("after three laps: fast total=%d, want 5", tot)
	}
}

// TestSLOBucketWiderThanFastWindow builds in code a config ParseSLO
// rejects: a bucket longer than the fast window. The engine caps the bucket
// at the fast window, so the fast window still counts and can trip.
func TestSLOBucketWiderThanFastWindow(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(SLOConfig{
		Availability: 0.99, LatencyTarget: 0.99, LatencyThreshold: time.Millisecond,
		Bucket: 10 * time.Minute, FastWindow: 5 * time.Minute,
		Clock: clk.Now,
	})
	for i := 0; i < 100; i++ {
		s.Record(AccessEvent{Status: 500, Latency: time.Second})
	}
	st := s.Status()
	for _, o := range st.Objectives {
		if o.Fast.Total != 100 {
			t.Errorf("%s fast = %+v, want 100 total", o.Name, o.Fast)
		}
	}
	if !st.Degraded {
		t.Error("100/100 errors did not degrade with a bucket wider than the fast window")
	}
}

func TestParseSLO(t *testing.T) {
	cfg, err := ParseSLO("availability=99,latency=95@2ms,bucket=1s,fast=5s,slow=30s,trip=10")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Availability != 0.99 || cfg.LatencyTarget != 0.95 ||
		cfg.LatencyThreshold != 2*time.Millisecond || cfg.Bucket != time.Second ||
		cfg.FastWindow != 5*time.Second || cfg.SlowWindow != 30*time.Second || cfg.TripFastBurn != 10 {
		t.Errorf("parsed %+v", cfg)
	}
	// String round-trips through ParseSLO.
	cfg2, err := ParseSLO(cfg.String())
	if err != nil {
		t.Fatalf("round trip: %v (spec %q)", err, cfg.String())
	}
	if cfg2.Availability != cfg.Availability || cfg2.FastWindow != cfg.FastWindow {
		t.Errorf("round trip drifted: %+v vs %+v", cfg2, cfg)
	}

	def, err := ParseSLO("default")
	if err != nil || def.Availability != 0.999 || def.FastWindow != 5*time.Minute {
		t.Errorf("default = %+v, %v", def, err)
	}

	for _, bad := range []string{
		"availability=0", "availability=100", "availability=x",
		"latency=99", "latency=99@0s", "latency=0@5ms",
		"bucket=-1s", "trip=0", "nonsense=1", "noequals",
		"fast=1h,slow=5m",
		"availability=99,latency=99@1ms,bucket=10m", // bucket wider than the default 5m fast window
		"fast=1s", // fast window narrower than the default 5s bucket
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted", bad)
		}
	}
}

// TestSLOHealthzDegradeRecover runs the full loop an operator sees: serve
// the engine, burn the budget, watch /healthz flip to 503, age the burst
// out, watch it recover.
func TestSLOHealthzDegradeRecover(t *testing.T) {
	t.Parallel()
	clk := newFakeClock()
	s := NewSLO(testSLOConfig(clk))
	mux := NewDebugMux(&CmdFlags{Sources: Sources{SLO: s}})

	healthz := func() (int, string) {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
		return w.Code, w.Body.String()
	}

	if code, body := healthz(); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("initial healthz = %d %q", code, body)
	}
	for i := 0; i < 20; i++ {
		s.Record(AccessEvent{Status: 200, Latency: 50 * time.Millisecond}) // latency breaches
	}
	code, body := healthz()
	if code != 503 || !strings.Contains(body, "degraded: latency fast burn") {
		t.Fatalf("breached healthz = %d %q", code, body)
	}
	clk.Advance(6 * time.Second) // past the 5s fast window
	if code, body := healthz(); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("recovered healthz = %d %q", code, body)
	}
}

// TestSLOConcurrentRecord hammers Record from many goroutines with an
// advancing clock so bucket rotation races are exercised under -race, then
// checks no response was lost or double-counted.
func TestSLOConcurrentRecord(t *testing.T) {
	var ticks atomic.Int64
	base := time.Unix(2_000_000, 0)
	cfg := SLOConfig{
		Availability: 0.99, LatencyTarget: 0.9, LatencyThreshold: 10 * time.Millisecond,
		Bucket: time.Millisecond, FastWindow: 5 * time.Second, SlowWindow: 10 * time.Second,
		Clock: func() time.Time {
			return base.Add(time.Duration(ticks.Add(1)) * 100 * time.Microsecond)
		},
	}
	s := NewSLO(cfg)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				switch {
				case i%100 == 0:
					s.Record(AccessEvent{Status: 500, Latency: time.Millisecond})
				case i%50 == 0:
					s.Record(AccessEvent{Status: 304})
				default:
					s.Record(AccessEvent{Status: 200, Latency: time.Millisecond})
				}
			}
		}(w)
	}
	wg.Wait()
	tot, errs, elig, _ := s.sums(cfg.SlowWindow)
	if tot != workers*per {
		t.Errorf("total = %d, want %d", tot, workers*per)
	}
	if errs != workers*per/100 {
		t.Errorf("errors = %d, want %d", errs, workers*per/100)
	}
	// i%100==0 wins over i%50==0, so each worker records per/100 304s.
	want304 := per / 100
	if elig != int64(workers*(per-want304)) {
		t.Errorf("eligible = %d, want %d (304s excluded)", elig, workers*(per-want304))
	}
}
