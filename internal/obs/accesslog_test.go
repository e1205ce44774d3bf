package obs

import (
	"context"
	"log/slog"
	"runtime"
	"sync"
	"testing"
	"time"
)

// captureHandler retains slog records for assertions.
type captureHandler struct {
	mu      sync.Mutex
	records []map[string]any
}

func (c *captureHandler) Enabled(context.Context, slog.Level) bool { return true }
func (c *captureHandler) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *captureHandler) WithGroup(string) slog.Handler            { return c }
func (c *captureHandler) Handle(_ context.Context, r slog.Record) error {
	m := map[string]any{}
	r.Attrs(func(a slog.Attr) bool { m[a.Key] = a.Value.Any(); return true })
	c.mu.Lock()
	c.records = append(c.records, m)
	c.mu.Unlock()
	return nil
}

func (c *captureHandler) targets(t *testing.T) []string {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, r := range c.records {
		out = append(out, r["target"].(string))
	}
	return out
}

// TestAccessLogRingOrderAndDrop fills a small un-started ring past capacity:
// the first `capacity` events must survive in arrival order and the overflow
// must be dropped (counted), never blocking the producer.
func TestAccessLogRingOrderAndDrop(t *testing.T) {
	col := &captureHandler{}
	l := NewAccessLog(slog.New(col), AccessLogConfig{Capacity: 4, SampleOK: 1})
	dropped0 := mAccessDropped.Value()

	for _, target := range []string{"a", "b", "c", "d", "e", "f"} {
		l.Record(AccessEvent{Status: 200, Target: target})
	}
	l.Close() // never started: flushes inline

	got := col.targets(t)
	if len(got) != 4 || got[0] != "a" || got[1] != "b" || got[2] != "c" || got[3] != "d" {
		t.Errorf("ring delivered %v, want [a b c d] in arrival order", got)
	}
	if d := mAccessDropped.Value() - dropped0; d != 2 {
		t.Errorf("dropped %d events, want 2", d)
	}
}

// TestAccessLogRingRecycles drives several laps through a started ring and
// checks nothing is lost when the drainer keeps up.
func TestAccessLogRingRecycles(t *testing.T) {
	col := &captureHandler{}
	l := NewAccessLog(slog.New(col), AccessLogConfig{Capacity: 8, SampleOK: 1}).Start()
	const n = 100
	for i := 0; i < n; i++ {
		l.Record(AccessEvent{Status: 500}) // always-log path
		if i%8 == 7 {
			time.Sleep(time.Millisecond) // let the drainer lap
		}
	}
	l.Close()
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.records) == 0 || len(col.records) > n {
		t.Fatalf("drained %d records from %d events", len(col.records), n)
	}
}

// TestAccessLogHeadSampling checks the emission policy: 1-in-N for healthy
// responses, errors and slow requests always logged.
func TestAccessLogHeadSampling(t *testing.T) {
	col := &captureHandler{}
	l := NewAccessLog(slog.New(col), AccessLogConfig{SampleOK: 3, SlowAfter: 10 * time.Millisecond})

	for i := 0; i < 9; i++ {
		l.Record(AccessEvent{Status: 200, Target: "ok"})
	}
	l.Record(AccessEvent{Status: 500, Target: "err"})
	l.Record(AccessEvent{Status: 404, Target: "err"})
	l.Record(AccessEvent{Status: 200, Target: "slow", Latency: 20 * time.Millisecond})
	l.Close()

	okN, errN, slowN := 0, 0, 0
	for _, target := range col.targets(t) {
		switch target {
		case "ok":
			okN++
		case "err":
			errN++
		case "slow":
			slowN++
		}
	}
	if okN != 3 {
		t.Errorf("1-in-3 sampling kept %d of 9 OK events, want 3", okN)
	}
	if errN != 2 {
		t.Errorf("kept %d of 2 error events, want both", errN)
	}
	if slowN != 1 {
		t.Errorf("kept %d slow events, want 1 (SlowAfter override)", slowN)
	}

	// SampleOK 0 logs no healthy traffic at all.
	col2 := &captureHandler{}
	l2 := NewAccessLog(slog.New(col2), AccessLogConfig{SampleOK: 0})
	l2.Record(AccessEvent{Status: 200})
	l2.Record(AccessEvent{Status: 503, Target: "err"})
	l2.Close()
	if got := col2.targets(t); len(got) != 1 || got[0] != "err" {
		t.Errorf("SampleOK=0 emitted %v, want only the error", got)
	}
}

// TestAccessLogRecordZeroAlloc pins the producer path at zero allocations,
// including the drop path once the ring is full.
func TestAccessLogRecordZeroAlloc(t *testing.T) {
	l := NewAccessLog(slog.New(slog.NewJSONHandler(nopSyncWriter{}, nil)),
		AccessLogConfig{Capacity: 16, SampleOK: 1})
	ev := AccessEvent{Status: 200, Route: "country", Target: "AU", Bytes: 128}
	if allocs := testing.AllocsPerRun(500, func() { l.Record(ev) }); allocs != 0 {
		t.Errorf("Record: %.1f allocs/op, want 0", allocs)
	}
}

type nopSyncWriter struct{}

func (nopSyncWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestAccessLogDrainerStops checks Close reaps the writer goroutine.
func TestAccessLogDrainerStops(t *testing.T) {
	before := runtime.NumGoroutine()
	l := NewAccessLog(slog.New(slog.NewJSONHandler(nopSyncWriter{}, nil)),
		AccessLogConfig{SampleOK: 1}).Start()
	for i := 0; i < 50; i++ {
		l.Record(AccessEvent{Status: 200})
	}
	l.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines %d > %d before Start: drainer leaked", n, before)
	}
}

// TestAccessLogRecordRacesClose runs producers while Close stops the
// writer. Nothing may panic, and once the producers stop (and a last Close
// flushes what they queued after the writer exited) every offered event is
// either written or counted as dropped.
func TestAccessLogRecordRacesClose(t *testing.T) {
	col := &captureHandler{}
	l := NewAccessLog(slog.New(col), AccessLogConfig{Capacity: 32, SampleOK: 1}).Start()
	dropped0 := mAccessDropped.Value()
	const producers, per = 8, 500
	var wg, running sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Record(AccessEvent{Status: 200, Target: "x"})
				if i == 0 {
					running.Done()
				}
			}
		}()
	}
	running.Wait() // every producer is mid-stream when Close starts
	l.Close()
	wg.Wait()
	l.Close()
	written := int64(len(col.targets(t)))
	if dropped := mAccessDropped.Value() - dropped0; written+dropped != producers*per {
		t.Errorf("written %d + dropped %d = %d, want %d offered", written, dropped, written+dropped, producers*per)
	}
}
