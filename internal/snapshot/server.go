package snapshot

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"countryrank/internal/obs"
)

// Serving metrics. Counters and gauges are plain atomic adds, so keeping
// them on the hot path does not break the zero-allocation guarantee the
// guard test pins.
var (
	mRequests = obs.NewCounter("countryrank_rankd_requests_total",
		"HTTP requests handled by the /v1 snapshot endpoints")
	mServed200 = obs.NewCounter("countryrank_rankd_responses_200_total",
		"full-body snapshot responses")
	mServed304 = obs.NewCounter("countryrank_rankd_responses_304_total",
		"If-None-Match revalidations answered with 304")
	mSwaps = obs.NewCounter("countryrank_rankd_snapshot_swaps_total",
		"snapshot rollovers published to the store")
	mEpoch = obs.NewGauge("countryrank_rankd_snapshot_epoch",
		"epoch of the currently served snapshot")
	mShed = obs.NewCounter("countryrank_rankd_shed_total",
		"requests shed by the in-flight admission gate (503 + Retry-After)")
	mStale = obs.NewGauge("countryrank_rankd_serving_stale",
		"1 while the served snapshot was warm-loaded from disk and the first rebuild has not yet landed")
	mHistEpochs = obs.NewGauge("countryrank_rankd_history_epochs",
		"epochs currently retained in the store's rank-history ring")
)

// Store publishes the currently served snapshot. Publish ends in an atomic
// pointer swap: readers that already loaded the old snapshot keep serving it
// unperturbed (it is immutable), new requests observe the new one, and the
// old snapshot is garbage-collected once the last in-flight response
// holding it returns. No locks, no reference counts.
type Store struct {
	cur atomic.Pointer[Snapshot]

	// The epoch history ring (history.go): the last -history epochs' rank
	// vectors, pushed under mu by Publish.
	mu   sync.Mutex
	hist *obs.Ring[histEntry]
}

// NewStore returns a store serving s (which may be nil; requests then
// answer 503 until the first Publish). A non-nil s seeds the history ring.
func NewStore(s *Snapshot) *Store {
	st := &Store{hist: obs.NewRing[histEntry](DefaultHistoryEpochs)}
	if s != nil {
		st.appendHistoryLocked(s, nil) // no readers yet; no lock needed
		st.cur.Store(s)
		mEpoch.Set(s.Epoch)
		mStale.Set(b2i(s.Stale))
	}
	return st
}

// Load returns the currently published snapshot (nil before the first
// Publish).
func (st *Store) Load() *Snapshot { return st.cur.Load() }

// Publish is the one way a snapshot becomes the served one. It records next
// (and the drift that produced it, which may be nil) in the history ring,
// preserializes the per-country history pages into next, swaps it in and
// returns the snapshot it replaced. The ring mutation and the swap share
// the store mutex so concurrent publishes cannot interleave ring order with
// serving order.
func (st *Store) Publish(next *Snapshot, d *Drift) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.appendHistoryLocked(next, d)
	old := st.cur.Swap(next)
	mSwaps.Inc()
	mEpoch.Set(next.Epoch)
	mStale.Set(b2i(next.Stale))
	return old
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Precomputed header values, assigned into the response header map by
// reference so the hot path allocates nothing per request.
var (
	hdrContentType  = []string{"application/json; charset=utf-8"}
	hdrCacheControl = []string{"public, max-age=15, stale-while-revalidate=60"}

	// Shed-path response, fully precomputed so refusing work allocates as
	// little as serving it: an overloaded server must not amplify load.
	shedBody      = []byte("overloaded, retry shortly\n")
	hdrRetryAfter = []string{"1"}
	hdrTextPlain  = []string{"text/plain; charset=utf-8"}
	hdrShedLength = []string{strconv.Itoa(len(shedBody))}
)

// routeClass labels the endpoint a request resolved to, for wide events.
type routeClass uint8

const (
	routeOther routeClass = iota
	routeCountry
	routeTop
	routeIndex
	routeShed
	routeHistory
)

var routeNames = [...]string{"other", "country", "top", "snapshot", "shed", "history"}

// Instrumentation is the handler's optional request-scoped observability:
// every field nil (or zero) is off and costs one branch per request. The
// populated hooks keep the hot path at exactly zero allocations — the
// access-log producer sends a value struct into a buffered channel without
// blocking, and SLO accounting bumps one mutex-guarded bucket. Both take
// the one AccessEvent finish builds.
type Instrumentation struct {
	// Log receives one wide AccessEvent per request.
	Log *obs.AccessLog
	// SLO accounts every response against availability/latency objectives.
	SLO *obs.SLO
	// SlowProbe, when positive, sleeps this long before serving any
	// request whose query carries probe=slow — a latency-injection hook
	// for SLO drills (CI drives /healthz to degraded with it). Leave zero
	// in production.
	SlowProbe time.Duration
	// MaxInFlight bounds concurrently admitted requests; excess requests
	// are shed with 503 + Retry-After (no queueing — under overload a
	// bounded fast no beats an unbounded slow yes). Zero disables the
	// gate.
	MaxInFlight int
}

// Handler serves the snapshot API:
//
//	GET /v1/countries/{cc}     one country's CCI/CCN/AHI/AHN page
//	GET /v1/top/{metric}?n=N   global top-N (metric: ccg, ahg; default n=10)
//	GET /v1/snapshot           snapshot metadata (epoch, digest, coverage)
//
// Every 200 carries a strong ETag (content SHA-256), Content-Length, and
// Cache-Control; If-None-Match revalidation answers 304 with no body. The
// 200 and 304 paths perform zero allocations and zero encoding per request
// — with access logging, SLO accounting, and metrics enabled: the handler
// resolves a preserialized entity, assigns precomputed header slices, and
// writes stored bytes.
type Handler struct {
	store *Store
	ins   Instrumentation
	// inflight counts admitted requests; the admission gate is a single
	// atomic add-and-compare, no lock and no allocation.
	inflight atomic.Int64
}

// NewHandler serves from st with instrumentation off.
func NewHandler(st *Store) *Handler { return &Handler{store: st} }

// Instrument installs the handler's observability hooks. Call before the
// handler starts serving; the fields are read concurrently afterwards.
func (h *Handler) Instrument(ins Instrumentation) { h.ins = ins }

const (
	prefixCountries = "/v1/countries/"
	prefixTop       = "/v1/top/"
	pathIndex       = "/v1/snapshot"
)

// reqResult carries what the serving core (or the shed path) resolved, for
// the wide event finish builds. Returned by value: no allocation.
type reqResult struct {
	route   routeClass
	target  string // country code or top metric path segment
	n       int    // resolved top-N (0 when n/a)
	status  int
	bytes   int
	etagHit bool
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	mRequests.Inc()
	if limit := h.ins.MaxInFlight; limit > 0 {
		if h.inflight.Add(1) > int64(limit) {
			h.inflight.Add(-1)
			h.finish(r, start, h.store.Load(), h.shed(w, r))
			return
		}
		defer h.inflight.Add(-1)
	}
	if h.ins.SlowProbe > 0 && strings.Contains(r.URL.RawQuery, "probe=slow") {
		time.Sleep(h.ins.SlowProbe)
	}
	snap := h.store.Load()
	h.finish(r, start, snap, h.serve(w, r, snap))
}

// finish builds the request's one wide event — served or shed — and hands
// it to the SLO and the access log.
func (h *Handler) finish(r *http.Request, start time.Time, snap *Snapshot, res reqResult) {
	if h.ins.SLO == nil && h.ins.Log == nil {
		return
	}
	ev := obs.AccessEvent{
		Start:   start,
		Route:   routeNames[res.route],
		Target:  res.target,
		N:       int32(res.n),
		Status:  int32(res.status),
		Bytes:   int64(res.bytes),
		Latency: time.Since(start),
		ETagHit: res.etagHit,
		Client:  r.RemoteAddr,
	}
	if snap != nil {
		ev.Epoch, ev.Digest = snap.Epoch, snap.Digest
	}
	if h.ins.SLO != nil {
		h.ins.SLO.Record(ev)
	}
	if h.ins.Log != nil {
		h.ins.Log.Record(ev)
	}
}

// shed refuses one request at the admission gate: 503 with Retry-After and
// a preallocated body, counted, and finished like a served request (a shed
// request is real unavailability — hiding it from the burn rate would lie
// to the operator). The shed path allocates nothing, like the paths it
// protects: an overloaded server must not amplify its own load.
func (h *Handler) shed(w http.ResponseWriter, r *http.Request) reqResult {
	mShed.Inc()
	hdr := w.Header()
	hdr["Retry-After"] = hdrRetryAfter
	hdr["Content-Type"] = hdrTextPlain
	hdr["Content-Length"] = hdrShedLength
	w.WriteHeader(http.StatusServiceUnavailable)
	res := reqResult{route: routeShed, status: http.StatusServiceUnavailable}
	if r.Method != http.MethodHead {
		_, _ = w.Write(shedBody)
		res.bytes = len(shedBody)
	}
	return res
}

// serve is the zero-alloc serving core; ServeHTTP wraps it with the
// request-scoped observability in finish.
func (h *Handler) serve(w http.ResponseWriter, r *http.Request, snap *Snapshot) reqResult {
	res := reqResult{}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		res.status = http.StatusMethodNotAllowed
		return res
	}
	if snap == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		res.status = http.StatusServiceUnavailable
		return res
	}
	var e *entity
	path := r.URL.Path
	switch {
	case path == pathIndex:
		e = snap.index
		res.route = routeIndex
	case len(path) > len(prefixCountries) && path[:len(prefixCountries)] == prefixCountries:
		rest := path[len(prefixCountries):]
		if i := strings.IndexByte(rest, '/'); i >= 0 && rest[i+1:] == "history" {
			// /v1/countries/{cc}/history — the preserialized epoch-history
			// page (rendered at publish time; serving it allocates nothing).
			res.route = routeHistory
			res.target = rest[:i]
			e = countryPage(snap.history, rest[:i])
		} else {
			res.route = routeCountry
			res.target = rest
			e = countryPage(snap.countries, rest)
		}
	case len(path) > len(prefixTop) && path[:len(prefixTop)] == prefixTop:
		res.route = routeTop
		res.target = path[len(prefixTop):]
		var ok bool
		e, res.n, ok = snap.top(res.target, r.URL.RawQuery)
		if !ok {
			http.Error(w, "bad n parameter", http.StatusBadRequest)
			res.status = http.StatusBadRequest
			return res
		}
	}
	if e == nil {
		http.NotFound(w, r)
		res.status = http.StatusNotFound
		return res
	}

	hdr := w.Header()
	hdr["Etag"] = e.etagHdr
	hdr["Cache-Control"] = hdrCacheControl
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, e.etag) {
		w.WriteHeader(http.StatusNotModified)
		mServed304.Inc()
		res.status = http.StatusNotModified
		res.etagHit = true
		return res
	}
	hdr["Content-Type"] = hdrContentType
	hdr["Content-Length"] = e.lenHdr
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		// ResponseWriter.Write on a []byte does not allocate; the net/http
		// connection machinery copies into its own buffered writer.
		_, _ = w.Write(e.body)
		res.bytes = len(e.body)
	}
	mServed200.Inc()
	res.status = http.StatusOK
	return res
}

// countryPage resolves a country's page in one of the snapshot's two
// per-country maps (the rankings page, the history page). The code is
// ASCII-uppercased into a stack buffer so lower-case URLs hit without
// allocating (map lookups with a string(buf) key stay on the stack). Nil
// for a malformed code, a country the map does not hold, or a nil map (a
// snapshot that carries no history ring).
func countryPage(pages map[string]*entity, cc string) *entity {
	var buf [8]byte
	if len(cc) == 0 || len(cc) > len(buf) {
		return nil
	}
	for i := 0; i < len(cc); i++ {
		c := cc[i]
		if c == '/' {
			return nil // no sub-paths under a country
		}
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return pages[string(buf[:len(cc)])]
}

// top resolves a top-N variant from the metric path segment and the raw
// query, reporting the clamped n actually served. ok is false only for an
// unparseable or non-positive n; an unknown metric returns (nil, 0, true)
// so the caller 404s.
func (s *Snapshot) top(metric, rawQuery string) (e *entity, n int, ok bool) {
	var buf [16]byte
	if len(metric) == 0 || len(metric) > len(buf) {
		return nil, 0, true
	}
	for i := 0; i < len(metric); i++ {
		c := metric[i]
		if c == '/' {
			return nil, 0, true
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	variants := s.tops[string(buf[:len(metric)])]
	if variants == nil {
		return nil, 0, true
	}
	n, ok = queryN(rawQuery, 10)
	if !ok || n <= 0 {
		return nil, 0, false
	}
	if n > s.maxTopN {
		n = s.maxTopN // cap, don't reject: CDN-friendly clamping
	}
	if n > len(variants) {
		n = len(variants) // fewer ranked ASes than requested
	}
	return variants[n-1], n, true
}

// queryN extracts the n parameter from a raw (unescaped) query string
// without url.ParseQuery's allocations. Absent n yields def; a present but
// malformed n yields ok=false.
func queryN(q string, def int) (n int, ok bool) {
	for len(q) > 0 {
		// Slice off one key=value pair.
		pair := q
		if i := strings.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			q = ""
		}
		if len(pair) < 2 || pair[0] != 'n' || pair[1] != '=' {
			continue
		}
		v := pair[2:]
		if len(v) == 0 || len(v) > 9 {
			return 0, false
		}
		n = 0
		for i := 0; i < len(v); i++ {
			c := v[i]
			if c < '0' || c > '9' {
				return 0, false
			}
			n = n*10 + int(c-'0')
		}
		return n, true
	}
	return def, true
}

// etagMatch implements the If-None-Match comparison for our strong ETags:
// "*" matches anything, otherwise the header must list the exact tag
// (weak-prefixed forms of it included, per RFC 9110 §8.8.3.2's weak
// comparison for If-None-Match). strings.Contains does not allocate.
func etagMatch(header, etag string) bool {
	return header == "*" || strings.Contains(header, etag)
}
