package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewDebugMux builds the debug endpoint set every cmd shares. Beyond the
// Default registry and the DefaultTrace it reads only the sources set on f
// when it is called — a cmd without one leaves the field nil and the
// endpoint answers with its empty document:
//
//	/metrics         Prometheus text exposition of the Default registry
//	/healthz         liveness probe: "ok", or 503 "degraded: <reason>" while
//	                 f.SLO's fast-burn threshold trips
//	/readyz          readiness probe, distinct from liveness — a live daemon
//	                 serving a too-stale snapshot is rotated out of a load
//	                 balancer, not restarted: 503 "not ready: <detail>" when
//	                 f.Ready reports false, ok otherwise
//	/debug/vars      expvar JSON (includes the countryrank metric bridge)
//	/debug/pprof     the standard pprof profile index
//	/debug/trace     Chrome trace-event JSON of the DefaultTrace: its last
//	                 traceRoots root spans, with the count dropped before
//	                 them under otherData
//	/debug/history   f.History's epoch-aligned rank-drift series (an opaque
//	                 any, so obs does not depend on the snapshot package)
//	/debug/slo       f.SLO's objectives, window counts, and burn rates (a
//	                 disabled marker without one)
func NewDebugMux(f *CmdFlags) *http.ServeMux {
	PublishExpvar()
	src := f.Sources // a copy: the handlers never read f again
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = Default.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if src.SLO != nil {
			if reason, degraded := src.SLO.Degraded(); degraded {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, "degraded: "+reason)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if src.Ready != nil {
			if detail, ok := src.Ready(); !ok {
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
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		if src.SLO == nil {
			writeJSON(w, map[string]bool{"enabled": false})
			return
		}
		writeJSON(w, src.SLO.Status())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = DefaultTrace.WriteChromeTrace(w)
	})
	mux.HandleFunc("/debug/history", func(w http.ResponseWriter, r *http.Request) {
		if src.History == nil {
			writeJSON(w, map[string]any{"epochs": []int64{}, "series": map[string][]float64{}})
			return
		}
		writeJSON(w, src.History())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(v)
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
