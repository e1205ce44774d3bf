package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// defaultReady is the process-wide readiness probe behind /readyz, distinct
// from /healthz liveness: a live daemon can be not-ready (e.g. serving a
// snapshot stale beyond its threshold) and should be rotated out of a load
// balancer without being restarted.
var defaultReady atomic.Pointer[func() (detail string, ready bool)]

// SetDefaultReady installs (or, with nil, clears) the readiness probe
// /readyz consults. With no probe installed /readyz answers ok, matching
// /healthz's permissive default.
func SetDefaultReady(fn func() (string, bool)) {
	if fn == nil {
		defaultReady.Store(nil)
		return
	}
	defaultReady.Store(&fn)
}

// GetDefaultReady returns the installed readiness probe, or nil.
func GetDefaultReady() func() (string, bool) {
	if p := defaultReady.Load(); p != nil {
		return *p
	}
	return nil
}

// defaultHistory feeds /debug/history: a provider returning an
// epoch-aligned series document (rankd installs its snapshot store's
// HistoryData). Kept as an opaque any so obs does not depend on the
// snapshot package.
var defaultHistory atomic.Pointer[func() any]

// SetDefaultHistory installs (or, with nil, clears) the /debug/history
// provider.
func SetDefaultHistory(fn func() any) {
	if fn == nil {
		defaultHistory.Store(nil)
		return
	}
	defaultHistory.Store(&fn)
}

// GetDefaultHistory returns the installed history provider, or nil.
func GetDefaultHistory() func() any {
	if p := defaultHistory.Load(); p != nil {
		return *p
	}
	return nil
}

// NewDebugMux builds the debug endpoint set every cmd shares:
//
//	/metrics         Prometheus text exposition of the Default registry
//	/healthz         liveness probe: "ok", or 503 "degraded: <reason>" while
//	                 the installed SLO engine's fast-burn threshold trips
//	/readyz          readiness probe: consults the installed readiness
//	                 function (SetDefaultReady); 503 "not ready: <detail>"
//	                 when it reports false, ok otherwise
//	/debug/vars      expvar JSON (includes the countryrank metric bridge)
//	/debug/pprof     the standard pprof profile index
//	/debug/trace     Chrome trace-event JSON snapshot of the DefaultTrace
//	/debug/timeline  ring-buffer metric timeline JSON (empty series when
//	                 no timeline sampler is installed)
//	/debug/history   epoch-aligned rank-drift series from the installed
//	                 history provider (SetDefaultHistory; empty when none)
//	/debug/requests  sampled request traces: active, recent, and slowest-N
//	                 per route (empty when no tracker is installed)
//	/debug/slo       objectives, window counts, and burn rates (disabled
//	                 marker when no SLO engine is installed)
func NewDebugMux() *http.ServeMux {
	PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		RefreshRuntimeMetrics()
		if s := GetDefaultSLO(); s != nil {
			s.refreshMetrics()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = Default.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s := GetDefaultSLO(); s != nil {
			if reason, degraded := s.Degraded(); degraded {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, "degraded: "+reason)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if probe := GetDefaultReady(); probe != nil {
			if detail, ready := probe(); !ready {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, "not ready: "+detail)
				return
			} else if detail != "ok" && detail != "" {
				fmt.Fprintln(w, "ok: "+detail)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		if t := GetDefaultRequests(); t != nil {
			_ = enc.Encode(t.Snapshot())
			return
		}
		_ = enc.Encode(RequestsData{Active: []ReqSpanData{}, Routes: map[string]RouteRequests{}})
	})
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		if s := GetDefaultSLO(); s != nil {
			_ = enc.Encode(s.Status())
			return
		}
		_ = enc.Encode(map[string]bool{"enabled": false})
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = DefaultTrace.WriteChromeTrace(w)
	})
	mux.HandleFunc("/debug/history", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		if h := GetDefaultHistory(); h != nil {
			_ = enc.Encode(h())
			return
		}
		_ = enc.Encode(map[string]any{"epochs": []int64{}, "series": map[string][]float64{}})
	})
	mux.HandleFunc("/debug/timeline", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		if tl := GetDefaultTimeline(); tl != nil {
			_ = enc.Encode(tl.Snapshot())
			return
		}
		_ = enc.Encode(TimelineData{Series: map[string][]float64{}, OffsetsMS: []int64{}})
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts the debug server on addr (host:port; port 0 picks a
// free one) and returns the bound address plus a closer that shuts the
// server down and releases its listener. Earlier revisions leaked the
// http.Server for the life of the process; callers (CmdFlags.Done) now
// close it once the linger window ends.
func ServeDebug(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	srv := NewServer(NewDebugMux())
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// Listener limits shared by every HTTP server in the repository. Requests
// are a path, a short query and at most an If-None-Match header, and none
// carries a body, so the bounds are tight: a client that stalls mid-request
// or parks an idle keep-alive connection is dropped instead of holding a
// goroutine and a descriptor forever.
const (
	// ReadTimeout covers headers and body alike (ReadHeaderTimeout defaults
	// to it).
	serverReadTimeout    = 5 * time.Second
	serverIdleTimeout    = 2 * time.Minute
	serverMaxHeaderBytes = 16 << 10
)

// NewServer returns an http.Server for h with the shared listener limits
// set. It sets no WriteTimeout: /debug/pprof/profile streams for as long as
// the caller asks, so a server that wants one sets it itself.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:        h,
		ReadTimeout:    serverReadTimeout,
		IdleTimeout:    serverIdleTimeout,
		MaxHeaderBytes: serverMaxHeaderBytes,
	}
}
