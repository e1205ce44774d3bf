package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// TestDebugVarsRefreshesPullSeries: /debug/vars must show series that are
// computed when read — here countryrank_go_goroutines — as of the request,
// with no /metrics scrape before it. Before the registry ran refresh funcs
// itself only a scrape refreshed them, so /debug/vars served the values of
// the last scrape.
func TestDebugVarsRefreshesPullSeries(t *testing.T) {
	f := newTestFlags(t, "-debug-addr", "127.0.0.1:0")
	f.Init()
	t.Cleanup(f.Done)

	goroutines := func() float64 {
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
		return vars.Countryrank["countryrank_go_goroutines"]
	}
	const parked = 64
	before := goroutines()
	if before <= 0 {
		t.Fatalf("countryrank_go_goroutines = %g before parking, want > 0", before)
	}
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
		}()
	}
	during := goroutines()
	close(release)
	wg.Wait()
	// Half the parked count leaves room for goroutines other tests left
	// behind exiting meanwhile; a stale value shows no rise at all.
	if during-before < parked/2 {
		t.Fatalf("/debug/vars goroutines %g → %g with %d parked and no /metrics scrape, want a rise of at least %d",
			before, during, parked, parked/2)
	}
	deadline := time.Now().Add(5 * time.Second)
	for goroutines() > during-parked/2 {
		if time.Now().After(deadline) {
			t.Fatalf("/debug/vars goroutines still %g after the %d parked exited (%g while parked)", goroutines(), parked, during)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
