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

// TestDoneClosesDebugServer: the -debug-addr server answers until Done and
// is gone after it (the listener must actually close, not leak).
func TestDoneClosesDebugServer(t *testing.T) {
	f := newTestFlags(t, "-debug-addr", "127.0.0.1:0")
	f.Init()
	addr := serverAddr(t, f)
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("debug server unreachable before Done: %v", err)
	}
	resp.Body.Close()

	f.Done()
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
