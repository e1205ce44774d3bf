package obs_test

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"countryrank/internal/core"
	"countryrank/internal/obs"
	"countryrank/internal/snapshot"
)

// rankdFlags parses args the way a cmd does, on a private FlagSet.
func rankdFlags(t *testing.T, args ...string) *obs.CmdFlags {
	t.Helper()
	fs := flag.NewFlagSet("rankd", flag.ContinueOnError)
	f := obs.FlagsOn(fs, "rankd")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDaemonTraceBounded drives a supervisor through ten times as many
// epochs as the stage trace has room for, each through rankd's real build
// closure (core.NewPipeline → snapshot.Build, at test scale), and requires
// what a long-lived daemon serves and writes to stop growing once the trace
// is full: /debug/trace's event count and byte size, Trace.Render's length
// and the -manifest file's size at 10× the capacity are within one epoch's
// worth of what they were at 1×, the newest epoch's eleven spans are the last
// ones exported, and the export says how many roots it let go. Before the
// roots sat on a ring, every one of these grew by an epoch's worth per epoch.
func TestDaemonTraceBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 160 small pipelines")
	}
	f := rankdFlags(t, "-manifest", filepath.Join(t.TempDir(), "manifest.json"))
	f.Setup()
	published := make(chan struct{}, 1) // one publish per Trigger below
	opt := core.Options{Seed: 3, StubScale: 0.01, VPScale: 0.02}
	sup := snapshot.NewSupervisor(snapshot.NewStore(nil), snapshot.SupervisorConfig{
		Build: func(ctx context.Context, epoch int64) (*snapshot.Snapshot, error) {
			return snapshot.Build(core.NewPipeline(opt), epoch, snapshot.Config{MaxTopN: 5}), ctx.Err()
		},
		OnPublish: func(*snapshot.Snapshot) { published <- struct{}{} },
	})
	defer sup.Close()
	mux := f.Serve()
	epochs := func(n int) {
		for i := 0; i < n; i++ {
			sup.Trigger("test")
			select {
			case <-published:
			case <-time.After(30 * time.Second):
				t.Fatalf("epoch %d of %d never published", i+1, n)
			}
		}
	}

	type chromeTrace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				SpanID uint64 `json:"span_id"`
			} `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]int64 `json:"otherData"`
	}
	type sizes struct {
		spans, traceBytes, render, manifest int
		names                               []string // span names in export order
		ids                                 []uint64
		dropped                             int64
	}
	measure := func() sizes {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", "/debug/trace", nil))
		var tr chromeTrace
		if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil {
			t.Fatalf("/debug/trace: %v", err)
		}
		s := sizes{traceBytes: w.Body.Len(), render: len(obs.DefaultTrace.Render()), dropped: tr.OtherData["dropped_roots"]}
		for _, ev := range tr.TraceEvents {
			if ev.Ph == "X" {
				s.spans++
				s.names = append(s.names, ev.Name)
				s.ids = append(s.ids, ev.Args.SpanID)
			}
		}
		f.WriteManifest()
		st, err := os.Stat(*f.ManifestOut)
		if err != nil {
			t.Fatal(err)
		}
		s.manifest = int(st.Size())
		return s
	}

	// Two roots an epoch (pipeline, snapshot-build), eleven spans between them.
	const rootsPerEpoch, spansPerEpoch = 2, 11
	fill := obs.TraceRoots / rootsPerEpoch
	epochs(1)
	one := measure()
	epochs(fill - 1)
	full := measure()
	epochs(9 * fill)
	late := measure()

	if full.spans < fill*spansPerEpoch {
		t.Fatalf("%d epochs exported %d spans, want at least %d: the epoch is no longer %d roots of %d spans and this test's arithmetic is stale",
			fill, full.spans, fill*spansPerEpoch, rootsPerEpoch, spansPerEpoch)
	}
	if late.spans > full.spans {
		t.Errorf("/debug/trace grew from %d spans at capacity to %d at 10× capacity", full.spans, late.spans)
	}
	// One epoch's worth of slack: other tests in this binary also record
	// into the process-wide trace, and durations and rates print at varying
	// widths.
	epochTrace, epochRender := full.traceBytes/fill, full.render/fill
	if late.traceBytes > full.traceBytes+epochTrace {
		t.Errorf("/debug/trace grew from %d B at capacity to %d B at 10× capacity (one epoch ≈ %d B)",
			full.traceBytes, late.traceBytes, epochTrace)
	}
	if late.render > full.render+epochRender {
		t.Errorf("span tree grew from %d B at capacity to %d B at 10× capacity (one epoch ≈ %d B)",
			full.render, late.render, epochRender)
	}
	if late.manifest > full.manifest+epochRender {
		t.Errorf("manifest grew from %d B at capacity to %d B at 10× capacity (one epoch of span tree ≈ %d B)",
			full.manifest, late.manifest, epochRender)
	}
	if full.manifest < one.manifest+(fill-2)*epochRender {
		t.Errorf("manifest at capacity (%d B) is not %d epochs of span tree above the 1-epoch manifest (%d B): the span tree is not reaching it",
			full.manifest, fill-1, one.manifest)
	}
	if want := int64(9 * fill * rootsPerEpoch); late.dropped < want {
		t.Errorf("export reports %d dropped roots after %d epochs past capacity, want at least %d", late.dropped, 9*fill, want)
	}
	if !strings.HasPrefix(obs.DefaultTrace.Render(), "(") {
		t.Errorf("span tree does not open with the dropped-roots line:\n%.200s", obs.DefaultTrace.Render())
	}

	// The newest epoch is the tail of the export, whole and in start order.
	want := []string{"pipeline", "topology", "propagate", "geolocate", "sanitize", "index", "precompute",
		"snapshot-build", "countries", "global", "assemble"}
	n := len(late.names)
	if got := late.names[n-spansPerEpoch:]; !slices.Equal(got, want) {
		t.Errorf("last %d exported spans = %v, want the newest epoch's %v", spansPerEpoch, got, want)
	}
	ids := late.ids[n-spansPerEpoch:]
	if slices.Max(late.ids) != ids[spansPerEpoch-1] || ids[spansPerEpoch-1]-ids[0] != spansPerEpoch-1 {
		t.Errorf("newest epoch's span ids %v are not the %d highest, contiguous", ids, spansPerEpoch)
	}
}

// TestReadyzNotOkBeforeProbe is rankd's start-up order on the -debug-addr
// listener: flags parsed and Setup run, then the supervisor built and its
// first build triggered, then Serve. The listener must not exist before
// Serve — when it opened in Init, ahead of the readiness probe, its /readyz
// answered "ok" from a daemon with nothing published — and the first answer
// it ever gives is the probe's "not ready", until the build lands.
func TestReadyzNotOkBeforeProbe(t *testing.T) {
	f := rankdFlags(t, "-debug-addr", "127.0.0.1:0")
	f.Setup()
	t.Cleanup(f.Done)
	if addr := f.BoundAddr(); addr != "" {
		t.Fatalf("debug listener open at %s before the readiness probe exists", addr)
	}

	release := make(chan struct{})
	store := snapshot.NewStore(nil)
	sup := snapshot.NewSupervisor(store, snapshot.SupervisorConfig{
		Build: func(ctx context.Context, epoch int64) (*snapshot.Snapshot, error) {
			select {
			case <-release: // a cold start's first build takes a while
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return snapshot.Assemble(snapshot.Data{Epoch: epoch}, snapshot.Config{}), nil
		},
	})
	defer sup.Close()
	f.Ready = sup.Ready
	sup.Trigger("boot")
	f.Serve()

	readyz := func() (int, string) {
		resp, err := http.Get("http://" + f.BoundAddr() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(body))
	}
	if code, body := readyz(); code != http.StatusServiceUnavailable || body != "not ready: no snapshot published" {
		t.Fatalf("first /readyz of a cold start = %d %q, want 503 \"not ready: no snapshot published\"", code, body)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for store.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("first build never published")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, body := readyz(); code != http.StatusOK || body != "ok" {
		t.Fatalf("/readyz after the first publish = %d %q, want 200 ok", code, body)
	}
}
