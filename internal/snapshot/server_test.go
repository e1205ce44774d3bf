package snapshot

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"countryrank/internal/obs"
)

func testSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	return Assemble(testData(1), Config{})
}

func get(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHandlerCountry(t *testing.T) {
	s := testSnapshot(t)
	h := NewHandler(NewStore(s))

	for _, path := range []string{"/v1/countries/AU", "/v1/countries/au", "/v1/countries/aU"} {
		w := get(t, h, path, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, w.Code)
		}
		if got := w.Body.String(); got != string(s.CountryBody("AU")) {
			t.Errorf("GET %s body mismatch:\n%s", path, got)
		}
		if et := w.Header().Get("ETag"); et != s.CountryETag("AU") {
			t.Errorf("GET %s ETag = %q, want %q", path, et, s.CountryETag("AU"))
		}
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
			t.Errorf("GET %s Content-Length = %q, body %d bytes", path, cl, w.Body.Len())
		}
		if cc := w.Header().Get("Cache-Control"); !strings.Contains(cc, "max-age") {
			t.Errorf("GET %s Cache-Control = %q", path, cc)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("GET %s Content-Type = %q", path, ct)
		}
	}
}

func TestHandlerConditional(t *testing.T) {
	s := testSnapshot(t)
	h := NewHandler(NewStore(s))
	etag := s.CountryETag("AU")

	cases := []struct {
		inm  string
		want int
	}{
		{etag, http.StatusNotModified},
		{`"stale", ` + etag, http.StatusNotModified}, // listed among others
		{"W/" + etag, http.StatusNotModified},        // weak comparison
		{"*", http.StatusNotModified},
		{`"something-else"`, http.StatusOK},
		{"", http.StatusOK},
	}
	for _, c := range cases {
		hdr := map[string]string{}
		if c.inm != "" {
			hdr["If-None-Match"] = c.inm
		}
		w := get(t, h, "/v1/countries/AU", hdr)
		if w.Code != c.want {
			t.Errorf("If-None-Match %q: status %d, want %d", c.inm, w.Code, c.want)
		}
		if et := w.Header().Get("ETag"); et != etag {
			t.Errorf("If-None-Match %q: ETag %q, want %q", c.inm, et, etag)
		}
		if c.want == http.StatusNotModified && w.Body.Len() != 0 {
			t.Errorf("If-None-Match %q: 304 carried %d body bytes", c.inm, w.Body.Len())
		}
	}
}

func TestHandlerTop(t *testing.T) {
	s := testSnapshot(t)
	h := NewHandler(NewStore(s))

	// Explicit n, case-insensitive metric.
	for _, path := range []string{"/v1/top/ccg?n=2", "/v1/top/CCG?n=2"} {
		w := get(t, h, path, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body.String())
		}
		if got, want := w.Body.String(), string(s.tops["ccg"][1].body); got != want {
			t.Errorf("GET %s body = %s, want %s", path, got, want)
		}
	}

	// Default n=10 clamps to the 3 available entries → largest variant.
	w := get(t, h, "/v1/top/ccg", nil)
	if w.Code != http.StatusOK || w.Body.String() != string(s.tops["ccg"][2].body) {
		t.Errorf("GET /v1/top/ccg (default n) = %d %s", w.Code, w.Body.String())
	}
	// Oversized n clamps the same way rather than 400/404ing.
	w = get(t, h, "/v1/top/ccg?n=999", nil)
	if w.Code != http.StatusOK || w.Body.String() != string(s.tops["ccg"][2].body) {
		t.Errorf("GET /v1/top/ccg?n=999 = %d", w.Code)
	}
	// Extra params around n are ignored.
	w = get(t, h, "/v1/top/ccg?foo=bar&n=1&x=2", nil)
	if w.Code != http.StatusOK || w.Body.String() != string(s.tops["ccg"][0].body) {
		t.Errorf("GET with surrounding params = %d", w.Code)
	}
}

func TestHandlerErrors(t *testing.T) {
	s := testSnapshot(t)
	h := NewHandler(NewStore(s))

	for path, want := range map[string]int{
		"/v1/countries/ZZ":          http.StatusNotFound, // unknown country
		"/v1/countries/AU/x":        http.StatusNotFound, // no sub-paths
		"/v1/countries/ZZ/history":  http.StatusNotFound, // unknown country history
		"/v1/countries/AU/history/": http.StatusNotFound, // no deeper sub-paths
		"/v1/countries//history":    http.StatusNotFound, // empty country code
		"/v1/countries/":            http.StatusNotFound,
		"/v1/countries/TOOLONGCODE": http.StatusNotFound,
		"/v1/top/bogus":             http.StatusNotFound, // unknown metric
		"/v1/top/ccg/extra":         http.StatusNotFound,
		"/v1/other":                 http.StatusNotFound,
		"/v1/":                      http.StatusNotFound,
		"/v1/top/ccg?n=abc":         http.StatusBadRequest,
		"/v1/top/ccg?n=":            http.StatusBadRequest,
		"/v1/top/ccg?n=0":           http.StatusBadRequest,
		"/v1/top/ccg?n=-1":          http.StatusBadRequest,
		"/v1/top/ccg?n=1234567890":  http.StatusBadRequest, // > 9 digits
	} {
		if w := get(t, h, path, nil); w.Code != want {
			t.Errorf("GET %s = %d, want %d", path, w.Code, want)
		}
	}

	// Non-GET/HEAD methods are rejected with Allow.
	req := httptest.NewRequest(http.MethodPost, "/v1/snapshot", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed || w.Header().Get("Allow") == "" {
		t.Errorf("POST = %d, Allow = %q", w.Code, w.Header().Get("Allow"))
	}

	// A store with no published snapshot answers 503.
	empty := NewHandler(NewStore(nil))
	if w := get(t, empty, "/v1/snapshot", nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("empty store GET = %d, want 503", w.Code)
	}
}

func TestHandlerHead(t *testing.T) {
	s := testSnapshot(t)
	h := NewHandler(NewStore(s))
	req := httptest.NewRequest(http.MethodHead, "/v1/countries/AU", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("HEAD = %d", w.Code)
	}
	if w.Body.Len() != 0 {
		t.Errorf("HEAD carried %d body bytes", w.Body.Len())
	}
	if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(len(s.CountryBody("AU"))) {
		t.Errorf("HEAD Content-Length = %q", cl)
	}
}

// collectHandler is a slog.Handler that retains records for assertions.
type collectHandler struct {
	mu      sync.Mutex
	records []map[string]any
}

func (c *collectHandler) Enabled(context.Context, slog.Level) bool { return true }
func (c *collectHandler) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *collectHandler) WithGroup(string) slog.Handler            { return c }
func (c *collectHandler) Handle(_ context.Context, r slog.Record) error {
	m := map[string]any{}
	r.Attrs(func(a slog.Attr) bool { m[a.Key] = a.Value.Any(); return true })
	c.mu.Lock()
	c.records = append(c.records, m)
	c.mu.Unlock()
	return nil
}

// TestInstrumentedWideEvents drives the handler with every hook installed
// and checks the wide events carry the request facts an operator needs:
// route class, target, status, ETag hit/miss, snapshot epoch+digest, and
// bytes.
func TestInstrumentedWideEvents(t *testing.T) {
	s := testSnapshot(t)
	h := NewHandler(NewStore(s))
	col := &collectHandler{}
	log := obs.NewAccessLog(slog.New(col), obs.AccessLogConfig{SampleOK: 1}).Start()
	h.Instrument(Instrumentation{
		Log:      log,
		Requests: obs.NewReqTracker(7, 1, 0, 0), // sample everything
		SLO:      obs.NewSLO(obs.SLOConfig{Availability: 0.99, LatencyTarget: 0.99, LatencyThreshold: time.Hour}),
	})

	get(t, h, "/v1/countries/AU", nil)
	get(t, h, "/v1/countries/AU", map[string]string{"If-None-Match": s.CountryETag("AU")})
	get(t, h, "/v1/top/ccg?n=2", nil)
	get(t, h, "/v1/countries/ZZ", nil) // 404: must be logged even unsampled
	log.Close()

	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.records) != 4 {
		t.Fatalf("access log emitted %d records, want 4", len(col.records))
	}
	want := []struct {
		route, target, etag string
		status, bytes       int64
	}{
		{"country", "AU", "miss", 200, int64(len(s.CountryBody("AU")))},
		{"country", "AU", "hit", 304, 0},
		{"top", "ccg", "miss", 200, int64(len(s.tops["ccg"][1].body))},
		{"country", "ZZ", "miss", 404, 0},
	}
	for i, w := range want {
		rec := col.records[i]
		if rec["route"] != w.route || rec["target"] != w.target || rec["etag"] != w.etag {
			t.Errorf("event %d: route/target/etag = %v/%v/%v, want %v/%v/%v",
				i, rec["route"], rec["target"], rec["etag"], w.route, w.target, w.etag)
		}
		if rec["status"] != w.status || rec["bytes"] != w.bytes {
			t.Errorf("event %d: status/bytes = %v/%v, want %d/%d", i, rec["status"], rec["bytes"], w.status, w.bytes)
		}
		if rec["epoch"] != int64(1) || rec["digest"] != s.Digest {
			t.Errorf("event %d: epoch/digest = %v/%v", i, rec["epoch"], rec["digest"])
		}
		if rec["sampled"] != true {
			t.Errorf("event %d: sampled = %v, want true (rate-1 tracker)", i, rec["sampled"])
		}
	}
}

// TestInstrumentedRequestTraces checks sampled requests land in the
// tracker with route, status, and the parse/lookup/write event sequence.
func TestInstrumentedRequestTraces(t *testing.T) {
	s := testSnapshot(t)
	h := NewHandler(NewStore(s))
	tracker := obs.NewReqTracker(7, 1, 8, 4)
	h.Instrument(Instrumentation{Requests: tracker})

	get(t, h, "/v1/countries/AU", nil)
	get(t, h, "/v1/top/ccg?n=2", nil)

	snap := tracker.Snapshot()
	if snap.Seen != 2 || snap.Sampled != 2 {
		t.Fatalf("tracker saw %d sampled %d, want 2/2", snap.Seen, snap.Sampled)
	}
	if len(snap.Active) != 0 {
		t.Errorf("%d traces still active after completion", len(snap.Active))
	}
	country := snap.Routes["country"]
	if len(country.Recent) != 1 || country.Recent[0].Status != 200 || country.Recent[0].Path != "/v1/countries/AU" {
		t.Fatalf("country recent = %+v", country.Recent)
	}
	var names []string
	for _, ev := range country.Recent[0].Events {
		names = append(names, ev.Name)
	}
	if strings.Join(names, ",") != "parse,lookup,write" {
		t.Errorf("trace events = %v, want parse,lookup,write", names)
	}
	if len(country.Slowest) != 1 {
		t.Errorf("slowest shelf holds %d, want 1", len(country.Slowest))
	}
}

// TestInstrumentedSLOAccounting checks the handler feeds the SLO engine:
// 304s excluded from the latency population, 404s not counted as errors,
// and the request totals matching traffic.
func TestInstrumentedSLOAccounting(t *testing.T) {
	s := testSnapshot(t)
	h := NewHandler(NewStore(s))
	now := time.Unix(1000, 0)
	slo := obs.NewSLO(obs.SLOConfig{
		Availability: 0.99, LatencyTarget: 0.99, LatencyThreshold: time.Hour,
		Bucket: time.Second, FastWindow: 10 * time.Second, SlowWindow: 20 * time.Second,
		Clock: func() time.Time { return now },
	})
	h.Instrument(Instrumentation{SLO: slo})

	get(t, h, "/v1/countries/AU", nil)
	get(t, h, "/v1/countries/AU", map[string]string{"If-None-Match": s.CountryETag("AU")})
	get(t, h, "/v1/countries/ZZ", nil)

	st := slo.Status()
	if len(st.Objectives) != 2 {
		t.Fatalf("objectives = %d, want 2", len(st.Objectives))
	}
	avail, lat := st.Objectives[0], st.Objectives[1]
	if avail.Fast.Total != 3 || avail.Fast.Bad != 0 {
		t.Errorf("availability fast = %+v, want 3 total 0 bad (404 is not a 5xx)", avail.Fast)
	}
	if lat.Fast.Total != 2 || lat.Fast.Bad != 0 {
		t.Errorf("latency fast = %+v, want 2 total (304 excluded) 0 bad", lat.Fast)
	}
}

// TestSlowProbe checks the CI latency-injection hook only fires on tagged
// requests.
func TestSlowProbe(t *testing.T) {
	s := testSnapshot(t)
	h := NewHandler(NewStore(s))
	h.Instrument(Instrumentation{SlowProbe: 30 * time.Millisecond})

	start := time.Now()
	w := get(t, h, "/v1/countries/AU", nil)
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("untagged request took %v with slow probe armed", d)
	}
	if w.Code != http.StatusOK {
		t.Fatalf("untagged = %d", w.Code)
	}
	start = time.Now()
	w = get(t, h, "/v1/snapshot?probe=slow", nil)
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("tagged request took only %v, want >= 30ms", d)
	}
	if w.Code != http.StatusOK {
		t.Fatalf("tagged = %d", w.Code)
	}
}

// TestShedOverLimit pins the admission gate: requests beyond MaxInFlight
// are refused with 503 + Retry-After and counted, while admitted requests
// are untouched — and the gate releases, so capacity returns when load
// drops.
func TestShedOverLimit(t *testing.T) {
	s := testSnapshot(t)
	h := NewHandler(NewStore(s))
	h.Instrument(Instrumentation{MaxInFlight: 2})
	shed0 := mShed.Value()

	// Saturate the gate: two requests parked inside the handler.
	inside := make(chan struct{}, 2)
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			req := httptest.NewRequest(http.MethodGet, "/v1/countries/AU", nil)
			h.ServeHTTP(&blockingWriter{inside: inside, release: release}, req)
		}()
	}
	<-inside
	<-inside

	// The third concurrent request must shed.
	w := get(t, h, "/v1/countries/AU", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit request = %d, want 503", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After")
	}
	if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
		t.Errorf("shed Content-Length %q, body %d bytes", cl, w.Body.Len())
	}
	if d := mShed.Value() - shed0; d != 1 {
		t.Errorf("shed counter moved by %d, want 1", d)
	}

	// Draining the parked requests frees the gate.
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if w := get(t, h, "/v1/countries/AU", nil); w.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gate did not release after parked requests drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingWriter parks the handler inside Write until released, holding an
// admission slot occupied. Each instance serves exactly one request; only
// the channels are shared.
type blockingWriter struct {
	hdr     http.Header
	inside  chan struct{}
	release chan struct{}
}

func (w *blockingWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}
func (w *blockingWriter) WriteHeader(int) {}
func (w *blockingWriter) Write(p []byte) (int, error) {
	w.inside <- struct{}{}
	<-w.release
	return len(p), nil
}

// TestShedDisabledByDefault: zero MaxInFlight means no gate at all.
func TestShedDisabledByDefault(t *testing.T) {
	s := testSnapshot(t)
	h := NewHandler(NewStore(s))
	for i := 0; i < 5; i++ {
		if w := get(t, h, "/v1/countries/AU", nil); w.Code != http.StatusOK {
			t.Fatalf("request %d = %d with no gate configured", i, w.Code)
		}
	}
}

// TestShedLoadgenDistinguishable pins the contract cmd/loadgen relies on to
// separate designed shedding from failure: the gate's 503 carries
// Retry-After, the empty-store 503 does not.
func TestShedLoadgenDistinguishable(t *testing.T) {
	empty := NewHandler(NewStore(nil))
	if w := get(t, empty, "/v1/snapshot", nil); w.Header().Get("Retry-After") != "" {
		t.Error("empty-store 503 carries Retry-After; loadgen would misclassify it as shedding")
	}
}

func TestStoreSwap(t *testing.T) {
	a := Assemble(testData(1), Config{})
	b := Assemble(testData(2), Config{})
	st := NewStore(a)
	if st.Load() != a {
		t.Fatal("Load != initial snapshot")
	}
	if old := st.Publish(b, nil); old != a {
		t.Fatal("Publish did not return the previous snapshot")
	}
	if st.Load() != b {
		t.Fatal("Load != swapped snapshot")
	}
}

// nopWriter is a minimal ResponseWriter for the allocation guard: Header
// returns a reused map (as net/http does for a live connection) and Write
// discards. Anything the handler allocates is therefore the handler's own.
type nopWriter struct {
	hdr  http.Header
	code int
	n    int
}

func (w *nopWriter) Header() http.Header { return w.hdr }
func (w *nopWriter) WriteHeader(c int)   { w.code = c }
func (w *nopWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestServeZeroAllocs pins the tentpole property: the 200 and 304 paths of
// every endpoint perform zero heap allocations per request — with access
// logging, SLO accounting, and serving metrics all enabled, and trace
// sampling consulted but declining (rate 0). If this fails, the serving
// hot path regressed — don't loosen the pin, find the alloc.
//
// The access log is deliberately not Started: AllocsPerRun counts mallocs
// process-wide, so a concurrent drainer goroutine emitting slog records
// would pollute the measurement. The producer path — policy decision,
// ring claim, struct copy, and the drop path once the ring fills — runs
// in full.
func TestServeZeroAllocs(t *testing.T) {
	s := testSnapshot(t)
	h := NewHandler(NewStore(s))
	log := obs.NewAccessLog(
		slog.New(slog.NewJSONHandler(io.Discard, nil)),
		obs.AccessLogConfig{Capacity: 64, SampleOK: 1, SlowAfter: time.Hour},
	)
	h.Instrument(Instrumentation{
		Log:         log,
		Requests:    obs.NewReqTracker(1, 0, 0, 0), // sampling off
		SLO:         obs.NewSLO(obs.SLOConfig{Availability: 0.999, LatencyTarget: 0.999, LatencyThreshold: 5 * time.Millisecond}),
		MaxInFlight: 64, // admission gate armed; everything below admits
	})

	cases := []struct {
		name string
		path string
		inm  string
	}{
		{"country 200", "/v1/countries/AU", ""},
		{"country lowercase 200", "/v1/countries/au", ""},
		{"country 304", "/v1/countries/AU", s.CountryETag("AU")},
		{"top 200", "/v1/top/ccg?n=2", ""},
		{"top default-n 200", "/v1/top/ccg", ""},
		{"top 304", "/v1/top/ccg?n=2", s.tops["ccg"][1].etag},
		{"index 200", "/v1/snapshot", ""},
		// The epoch-history page is preserialized at publish (NewStore
		// seeded the ring), so serving it must be as alloc-free as any
		// entity — the drift layer's zero-alloc pin.
		{"history 200", "/v1/countries/AU/history", ""},
		{"history lowercase 200", "/v1/countries/au/history", ""},
		{"history 304", "/v1/countries/AU/history", s.history["AU"].etag},
	}
	for _, c := range cases {
		u, err := url.Parse(c.path)
		if err != nil {
			t.Fatal(err)
		}
		req := &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}}
		if c.inm != "" {
			req.Header.Set("If-None-Match", c.inm)
		}
		w := &nopWriter{hdr: http.Header{}}
		allocs := testing.AllocsPerRun(200, func() {
			h.ServeHTTP(w, req)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs/request, want 0", c.name, allocs)
		}
		wantCode := http.StatusOK
		if c.inm != "" {
			wantCode = http.StatusNotModified
		}
		if w.code != wantCode {
			t.Errorf("%s: status %d, want %d", c.name, w.code, wantCode)
		}
	}

	// The shed path must be zero-alloc too: an overloaded server that
	// allocates per refused request amplifies its own overload. Fill the
	// gate artificially and pin the 503 path.
	h.inflight.Store(64)
	defer h.inflight.Store(0)
	u, err := url.Parse("/v1/countries/AU")
	if err != nil {
		t.Fatal(err)
	}
	req := &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}}
	w := &nopWriter{hdr: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	})
	if allocs != 0 {
		t.Errorf("shed 503: %.1f allocs/request, want 0", allocs)
	}
	if w.code != http.StatusServiceUnavailable {
		t.Errorf("shed path status %d, want 503", w.code)
	}
}
