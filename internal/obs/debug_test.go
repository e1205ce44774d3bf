package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// hitMux serves one GET from a debug mux built over src.
func hitMux(src Sources, path string) (int, string) {
	w := httptest.NewRecorder()
	NewDebugMux(&CmdFlags{Sources: src}).ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w.Code, w.Body.String()
}

// TestReadyzProbe pins the /readyz contract: permissive with no probe,
// 503 "not ready" when the probe reports false, detail carried either way,
// and liveness (/healthz) unaffected — readiness and liveness are separate
// questions (rotate out of the LB vs restart the process).
func TestReadyzProbe(t *testing.T) {
	t.Parallel()
	if code, body := hitMux(Sources{}, "/readyz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("no probe: /readyz = %d %q, want 200 ok", code, body)
	}

	state := "no snapshot published"
	ready := false
	src := Sources{Ready: func() (string, bool) { return state, ready }}
	if code, body := hitMux(src, "/readyz"); code != 503 || !strings.Contains(body, "not ready: no snapshot published") {
		t.Fatalf("unready probe: /readyz = %d %q", code, body)
	}
	// Unreadiness must not flip liveness.
	if code, _ := hitMux(src, "/healthz"); code != 200 {
		t.Fatalf("/healthz followed /readyz down: %d", code)
	}

	state, ready = "serving warm-loaded snapshot (rebuild pending)", true
	if code, body := hitMux(src, "/readyz"); code != 200 || !strings.Contains(body, "warm-loaded") {
		t.Fatalf("ready-with-detail probe: /readyz = %d %q", code, body)
	}

	state, ready = "ok", true
	if code, body := hitMux(src, "/readyz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("plain ready probe: /readyz = %d %q", code, body)
	}
}

// TestDebugHistory pins /debug/history: an empty document with no
// provider, the provider's value (JSON-encoded) with one.
func TestDebugHistory(t *testing.T) {
	t.Parallel()
	if code, body := hitMux(Sources{}, "/debug/history"); code != 200 || !strings.Contains(body, `"epochs":[]`) {
		t.Fatalf("no provider: /debug/history = %d %q, want empty document", code, body)
	}

	code, body := hitMux(Sources{History: func() any {
		return map[string]any{"epochs": []int64{7, 8}, "series": map[string][]float64{"churn_cci": {0, 1.5}}}
	}}, "/debug/history")
	if code != 200 {
		t.Fatalf("/debug/history = %d", code)
	}
	for _, frag := range []string{`"epochs":[7,8]`, `"churn_cci":[0,1.5]`} {
		if !strings.Contains(body, frag) {
			t.Errorf("/debug/history body %q missing %q", body, frag)
		}
	}
}

// TestDebugTimeline pins /debug/timeline: an empty document with no
// sampler, the sampler's ring with one.
func TestDebugTimeline(t *testing.T) {
	t.Parallel()
	if code, body := hitMux(Sources{}, "/debug/timeline"); code != 200 || !strings.Contains(body, `"offsets_ms":[]`) {
		t.Fatalf("no sampler: /debug/timeline = %d %q, want empty document", code, body)
	}
	r := &Registry{}
	r.Counter("countryrank_test_debugtl_total", "").Add(3)
	tl := NewTimeline(r, time.Hour, 4)
	tl.Start()
	tl.Stop()
	code, body := hitMux(Sources{Timeline: tl}, "/debug/timeline")
	if code != 200 || !strings.Contains(body, `"countryrank_test_debugtl_total":[3,3]`) {
		t.Fatalf("/debug/timeline = %d %q", code, body)
	}
}

// TestDebugVarsRefreshesPullSeries: /debug/vars must show series that are
// computed when read — here the SLO burn gauges — as of the request, with no
// /metrics scrape and no timeline tick before it. Before the registry ran
// refresh funcs itself only those two paths refreshed them, so /debug/vars
// served the values of the last scrape.
func TestDebugVarsRefreshesPullSeries(t *testing.T) {
	clk := newFakeClock()
	slo := NewSLO(testSLOConfig(clk))
	f := newTestFlags(t, "-debug-addr", "127.0.0.1:0")
	f.Setup()
	f.SLO = slo
	f.Serve()
	t.Cleanup(f.Done)

	burn := func() float64 {
		resp, err := http.Get("http://" + serverAddr(t, f) + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var vars struct {
			Countryrank map[string]float64 `json:"countryrank"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
			t.Fatal(err)
		}
		return vars.Countryrank["countryrank_slo_latency_fast_burn"]
	}
	if got := burn(); got != 0 {
		t.Fatalf("latency fast burn before any breach = %g, want 0", got)
	}
	for i := 0; i < 20; i++ {
		slo.Record(200, 50*time.Millisecond, false) // latency breaches
	}
	if got := burn(); got <= 0 {
		t.Fatalf("/debug/vars latency fast burn = %g after 20 breaches with no /metrics scrape, want > 0", got)
	}
	clk.Advance(6 * time.Second) // past the 5s fast window
	if got := burn(); got != 0 {
		t.Fatalf("/debug/vars latency fast burn = %g after the window aged out, want 0", got)
	}
}
