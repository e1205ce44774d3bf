package obs

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// A ReqTracker retains sampled request traces for after-the-fact
// inspection, net/trace-style: the set of active (in-flight) sampled
// requests, a bounded most-recent ring per route, and a slowest-N exemplar
// shelf per route so the request behind a p999 spike is still inspectable
// long after it completed. /debug/requests serves Snapshot.
//
// A sampled request is a typed record, not a span: Start records its path,
// the handler marks its phases with Mark, and Finish copies route, status,
// bytes and latency from the AccessEvent the access log receives, so each
// request fact is measured once. Only sampled requests ever allocate one;
// the unsampled path sees a nil *Req and pays a single sampler decision.
type ReqTracker struct {
	sampler *Sampler

	recentN int
	slowN   int

	mu     sync.Mutex // guards every Req's fields as well as the maps
	active map[*Req]struct{}
	routes map[string]*routeShelf
}

// A Req is one sampled request. Its methods are nil-safe: a nil *Req is a
// request the sampler declined.
type Req struct {
	t     *ReqTracker
	path  string
	start time.Time
	marks []ReqEventData

	// Set by Finish.
	route   string
	status  int
	bytes   int64
	latency time.Duration
}

// routeShelf is one route's retention: the most recent completed requests
// and the slowest-N shelf ordered slowest-first (the fastest exemplar
// evicted when a slower one arrives).
type routeShelf struct {
	recent *Ring[*Req]
	slow   []*Req // sorted by latency descending, len <= slowN
}

// NewReqTracker samples requests at rate with the given seed, retaining
// per route the recentN most recent completed traces and the slowN slowest.
func NewReqTracker(seed int64, rate float64, recentN, slowN int) *ReqTracker {
	return &ReqTracker{
		sampler: NewSampler(seed, rate),
		recentN: recentN,
		slowN:   slowN,
		active:  map[*Req]struct{}{},
		routes:  map[string]*routeShelf{},
	}
}

// Start consults the sampler for the arriving request. It returns nil —
// with zero allocations — unless the request is promoted, in which case
// the returned record is registered active.
func (t *ReqTracker) Start(path string) *Req {
	if !t.sampler.Sample() {
		return nil
	}
	rq := &Req{t: t, path: path, start: time.Now(), marks: make([]ReqEventData, 0, 4)}
	t.mu.Lock()
	t.active[rq] = struct{}{}
	t.mu.Unlock()
	return rq
}

// Mark records a phase boundary (parse, lookup, write) at its offset into
// the request. It takes the tracker lock because Snapshot reads active
// requests concurrently.
func (rq *Req) Mark(name string) {
	if rq == nil {
		return
	}
	at := time.Since(rq.start).Microseconds()
	rq.t.mu.Lock()
	rq.marks = append(rq.marks, ReqEventData{Name: name, OffsetUS: at})
	rq.t.mu.Unlock()
}

// Finish completes a sampled request with the facts of its access event,
// moves it from the active set into its route's recent ring, and offers it
// to the slowest-N shelf. A nil rq does nothing.
func (t *ReqTracker) Finish(rq *Req, ev AccessEvent) {
	if rq == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rq.route, rq.status, rq.bytes, rq.latency = ev.Route, int(ev.Status), ev.Bytes, ev.Latency
	delete(t.active, rq)

	sh := t.routes[rq.route]
	if sh == nil {
		sh = &routeShelf{recent: NewRing[*Req](t.recentN)}
		t.routes[rq.route] = sh
	}
	sh.recent.Push(rq)
	// Offer it to the slowest shelf; over capacity the fastest exemplar
	// goes (the stable sort leaves equals in arrival order).
	sh.slow = append(sh.slow, rq)
	slices.SortStableFunc(sh.slow, func(a, b *Req) int { return cmp.Compare(b.latency, a.latency) })
	sh.slow = sh.slow[:min(len(sh.slow), t.slowN)]
}

// ReqData is one request in the /debug/requests JSON.
type ReqData struct {
	Route     string         `json:"route,omitempty"`
	Path      string         `json:"path"`
	Start     string         `json:"start"`
	Status    int            `json:"status,omitempty"`
	Bytes     int64          `json:"bytes,omitempty"`
	LatencyUS int64          `json:"latency_us"`
	Open      bool           `json:"open,omitempty"`
	Events    []ReqEventData `json:"events,omitempty"`
}

// ReqEventData is one marked phase with its offset into the request.
type ReqEventData struct {
	Name     string `json:"name"`
	OffsetUS int64  `json:"offset_us"`
}

// RouteRequests is one route's retained traces.
type RouteRequests struct {
	Recent  []ReqData `json:"recent"`
	Slowest []ReqData `json:"slowest"`
}

// RequestsData is the /debug/requests JSON shape.
type RequestsData struct {
	Seen    int64                    `json:"seen"`
	Sampled int64                    `json:"sampled"`
	Active  []ReqData                `json:"active"`
	Routes  map[string]RouteRequests `json:"routes"`
}

// dataLocked copies the request into its JSON row. Caller holds the
// tracker lock.
func (rq *Req) dataLocked() ReqData {
	return ReqData{
		Route:     rq.route,
		Path:      rq.path,
		Start:     rq.start.UTC().Format(time.RFC3339Nano),
		Status:    rq.status,
		Bytes:     rq.bytes,
		LatencyUS: rq.latency.Microseconds(),
		Events:    slices.Clone(rq.marks),
	}
}

// Snapshot copies the tracker state into its JSON report. Recent traces
// come back oldest-first; the slowest shelf slowest-first. An active
// request's latency is its age so far.
func (t *ReqTracker) Snapshot() RequestsData {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := RequestsData{
		Seen:    t.sampler.Seen(),
		Sampled: t.sampler.Sampled(),
		Active:  []ReqData{},
		Routes:  map[string]RouteRequests{},
	}
	for rq := range t.active {
		row := rq.dataLocked()
		row.LatencyUS = time.Since(rq.start).Microseconds()
		row.Open = true
		d.Active = append(d.Active, row)
	}
	for route, sh := range t.routes {
		rr := RouteRequests{Recent: []ReqData{}, Slowest: []ReqData{}}
		for _, rq := range sh.recent.Items() {
			rr.Recent = append(rr.Recent, rq.dataLocked())
		}
		for _, rq := range sh.slow {
			rr.Slowest = append(rr.Slowest, rq.dataLocked())
		}
		d.Routes[route] = rr
	}
	return d
}
