package obs

import (
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// newTestFlags builds a CmdFlags on a private FlagSet so tests never touch
// the process-wide flag.CommandLine.
func newTestFlags(t *testing.T, args ...string) *CmdFlags {
	t.Helper()
	fs := flag.NewFlagSet("obs-test", flag.ContinueOnError)
	f := FlagsOn(fs, "obstest")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDoneNoLinger: without -debug-addr (or with a zero linger) Done must
// return immediately.
func TestDoneNoLinger(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-debug-linger", "5s"},        // linger without a server: no-op
		{"-debug-addr", "127.0.0.1:0"}, // server without linger
		{"-debug-addr", "127.0.0.1:0", "-debug-linger", "0s"},
	} {
		f := newTestFlags(t, args...)
		f.Init()
		start := time.Now()
		f.Done()
		if d := time.Since(start); d > time.Second {
			t.Errorf("Done(%v) blocked %v, want immediate return", args, d)
		}
	}
}

// TestDoneLingerWaits: with a server and a short linger, Done blocks for
// roughly the window, keeps the server scrapeable during it, and shuts the
// server down afterwards (the leak fix: the listener must actually close).
func TestDoneLingerWaits(t *testing.T) {
	f := newTestFlags(t, "-debug-addr", "127.0.0.1:0", "-debug-linger", "300ms")
	f.Init()
	if f.shutdown == nil {
		t.Fatal("Init did not record a shutdown func")
	}
	addr := serverAddr(t, f)

	done := make(chan struct{})
	go func() { f.Done(); close(done) }()

	// Mid-linger the endpoints must answer.
	time.Sleep(50 * time.Millisecond)
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("debug server unreachable during linger: %v", err)
	}
	resp.Body.Close()

	start := time.Now()
	<-done
	if total := time.Since(start); total > 2*time.Second {
		t.Fatalf("Done overstayed the linger window: %v", total)
	}
	// After Done the server must be gone — this is the http.Server leak fix.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("debug server still answering after Done")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDoneLingerInterrupted: an interrupt must cut the linger window short
// instead of blocking the full duration.
func TestDoneLingerInterrupted(t *testing.T) {
	f := newTestFlags(t, "-debug-addr", "127.0.0.1:0", "-debug-linger", "30s")
	interrupt := make(chan struct{})
	f.testInterrupt = interrupt
	f.Init()
	done := make(chan struct{})
	start := time.Now()
	go func() { f.Done(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(interrupt)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("interrupt did not cut the 30s linger short")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Done took %v despite interrupt", d)
	}
}

// serverAddr returns the debug server's bound address (the tests bind
// 127.0.0.1:0, so the real port is only known after Init).
func serverAddr(t *testing.T, f *CmdFlags) string {
	t.Helper()
	if f.boundAddr == "" {
		t.Fatal("no bound debug address recorded")
	}
	return f.boundAddr
}

// TestFlagsArtifacts: Done writes the -trace-out and -manifest files.
func TestFlagsArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	manifestPath := filepath.Join(dir, "manifest.json")
	f := newTestFlags(t, "-trace-out", tracePath, "-manifest", manifestPath)
	f.Init()
	f.Manifest.Seed("world", 9)
	sp := StartSpan("flagstest-stage")
	sp.AddItems(3, "things")
	sp.End()
	f.Done()

	var trace chromeTraceFile
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	found := false
	for _, ev := range trace.TraceEvents {
		if ev.Phase == "X" && ev.Name == "flagstest-stage" {
			found = true
		}
	}
	if !found {
		t.Error("trace missing the recorded span")
	}

	var m RunManifest
	raw, err = os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest not JSON: %v", err)
	}
	if m.Cmd != "obstest" || m.Schema != ManifestSchema {
		t.Errorf("manifest cmd/schema = %q/%d", m.Cmd, m.Schema)
	}
	if m.Seeds["world"] != 9 {
		t.Errorf("manifest seeds = %v", m.Seeds)
	}
	if m.WallSeconds <= 0 {
		t.Errorf("manifest wall_seconds = %v", m.WallSeconds)
	}
	if len(m.Metrics) == 0 {
		t.Error("manifest metrics empty")
	}
	if !strings.Contains(m.SpanTree, "flagstest-stage") {
		t.Errorf("manifest span tree missing stage:\n%s", m.SpanTree)
	}
	if _, ok := m.Flags["trace-out"]; !ok {
		t.Error("manifest flags missing the shared obs flags")
	}
}

// TestFlagsTimeline: -timeline starts, samples, and stops the sampler the
// debug surface serves.
func TestFlagsTimeline(t *testing.T) {
	// Register before Init: a default timeline samples the metrics present
	// when sampling starts.
	c := NewCounter("countryrank_test_flagstl_total", "")
	f := newTestFlags(t, "-timeline", "1ms")
	f.Init()
	if f.Timeline == nil {
		t.Fatal("-timeline did not start a sampler")
	}
	c.Inc()
	time.Sleep(10 * time.Millisecond)
	f.Done()
	d := f.Timeline.Snapshot()
	if len(d.OffsetsMS) < 2 {
		t.Fatalf("timeline sampled %d times, want >= 2", len(d.OffsetsMS))
	}
	series, ok := d.Series["countryrank_test_flagstl_total"]
	if !ok {
		t.Fatal("timeline missing registry counter")
	}
	if series[len(series)-1] < 1 {
		t.Errorf("timeline final sample = %v, want >= 1", series[len(series)-1])
	}
}

// TestPublishExpvarTwice: the expvar bridge must tolerate repeated
// publication (expvar.Publish panics on duplicate names; the bridge must
// not).
func TestPublishExpvarTwice(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("PublishExpvar panicked on second call: %v", r)
		}
	}()
	PublishExpvar()
	PublishExpvar()
}

// TestRenderDeepTree: renderLocked's name padding went negative past depth
// 16 and fmt rejected the width; a 24-deep tree must render cleanly.
func TestRenderDeepTree(t *testing.T) {
	tr := &Trace{}
	spans := make([]*Span, 0, 24)
	for i := 0; i < 24; i++ {
		spans = append(spans, tr.Start("deep"))
	}
	for i := len(spans) - 1; i >= 0; i-- {
		spans[i].End()
	}
	out := tr.Render()
	if strings.Contains(out, "%!(BADWIDTH)") {
		t.Fatalf("deep render hit a negative pad:\n%s", out)
	}
	if got := strings.Count(out, "deep"); got != 24 {
		t.Errorf("rendered %d spans, want 24", got)
	}
}
