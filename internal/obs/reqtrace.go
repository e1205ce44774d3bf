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
// A sampled request is an ordinary detached Span named "request": the
// handler marks its phases with Event, and Start and Finish record the
// request facts (path; route, status, bytes) as attrs. Only sampled
// requests ever allocate one; the unsampled path sees a nil *Span and pays
// a single sampler decision.
type ReqTracker struct {
	sampler *Sampler
	trace   Trace // private span factory; never rendered into DefaultTrace

	recentN int
	slowN   int

	mu     sync.Mutex
	active map[*Span]struct{}
	routes map[string]*routeShelf
}

// routeShelf is one route's retention: the most recent completed traces and
// the slowest-N shelf ordered slowest-first (the fastest exemplar evicted
// when a slower one arrives).
type routeShelf struct {
	recent *Ring[*Span]
	slow   []*Span // sorted by duration descending, len <= slowN
}

// NewReqTracker samples requests at rate with the given seed, retaining
// per route the recentN most recent completed traces and the slowN slowest.
func NewReqTracker(seed int64, rate float64, recentN, slowN int) *ReqTracker {
	return &ReqTracker{
		sampler: NewSampler(seed, rate),
		recentN: recentN,
		slowN:   slowN,
		active:  map[*Span]struct{}{},
		routes:  map[string]*routeShelf{},
	}
}

// Start consults the sampler for the arriving request. It returns nil —
// with zero allocations — unless the request is promoted, in which case
// the returned span is registered active and running.
func (t *ReqTracker) Start(path string) *Span {
	if !t.sampler.Sample() {
		return nil
	}
	r := t.trace.StartDetached("request")
	r.SetAttr("path", path)
	t.mu.Lock()
	t.active[r] = struct{}{}
	t.mu.Unlock()
	return r
}

// Finish completes a sampled request: closes its span, moves it from the
// active set into its route's recent ring, and offers it to the slowest-N
// shelf. Nil-safe.
func (t *ReqTracker) Finish(r *Span, route string, status int, bytes int64) {
	if r == nil {
		return
	}
	r.End()
	r.SetAttr("route", route)
	r.SetAttr("status", status)
	r.SetAttr("bytes", bytes)
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.active, r)

	sh := t.routes[route]
	if sh == nil {
		sh = &routeShelf{recent: NewRing[*Span](t.recentN)}
		t.routes[route] = sh
	}
	sh.recent.Push(r)
	// Offer it to the slowest shelf; over capacity the fastest exemplar
	// goes (the stable sort leaves equals in arrival order).
	sh.slow = append(sh.slow, r)
	slices.SortStableFunc(sh.slow, func(a, b *Span) int { return cmp.Compare(b.Duration(), a.Duration()) })
	sh.slow = sh.slow[:min(len(sh.slow), t.slowN)]
}

// ReqSpanData is one trace in the /debug/requests JSON.
type ReqSpanData struct {
	Route     string         `json:"route,omitempty"`
	Path      string         `json:"path"`
	Start     string         `json:"start"`
	Status    int            `json:"status,omitempty"`
	Bytes     int64          `json:"bytes,omitempty"`
	LatencyUS int64          `json:"latency_us"`
	Open      bool           `json:"open,omitempty"`
	Events    []ReqEventData `json:"events,omitempty"`
}

// ReqEventData is one span event with its offset into the request.
type ReqEventData struct {
	Name     string `json:"name"`
	OffsetUS int64  `json:"offset_us"`
}

// RouteRequests is one route's retained traces.
type RouteRequests struct {
	Recent  []ReqSpanData `json:"recent"`
	Slowest []ReqSpanData `json:"slowest"`
}

// RequestsData is the /debug/requests JSON shape.
type RequestsData struct {
	Seen    int64                    `json:"seen"`
	Sampled int64                    `json:"sampled"`
	Active  []ReqSpanData            `json:"active"`
	Routes  map[string]RouteRequests `json:"routes"`
}

// renderRequest reads one request span back into its JSON row.
func renderRequest(r *Span) ReqSpanData {
	d := ReqSpanData{
		Start:     r.start.UTC().Format(time.RFC3339Nano),
		LatencyUS: r.Duration().Microseconds(),
	}
	for _, a := range r.Attrs() {
		switch a.Key {
		case "path":
			d.Path, _ = a.Value.(string)
		case "route":
			d.Route, _ = a.Value.(string)
		case "status":
			d.Status, _ = a.Value.(int)
		case "bytes":
			d.Bytes, _ = a.Value.(int64)
		}
	}
	for _, ev := range r.Events() {
		d.Events = append(d.Events, ReqEventData{
			Name:     ev.Name,
			OffsetUS: ev.At.Sub(r.start).Microseconds(),
		})
	}
	return d
}

// Snapshot copies the tracker state into its JSON report. Recent traces
// come back oldest-first; the slowest shelf slowest-first.
func (t *ReqTracker) Snapshot() RequestsData {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := RequestsData{
		Seen:    t.sampler.Seen(),
		Sampled: t.sampler.Sampled(),
		Active:  []ReqSpanData{},
		Routes:  map[string]RouteRequests{},
	}
	for r := range t.active {
		row := renderRequest(r)
		row.Open = true
		d.Active = append(d.Active, row)
	}
	for route, sh := range t.routes {
		rr := RouteRequests{Recent: []ReqSpanData{}, Slowest: []ReqSpanData{}}
		for _, r := range sh.recent.Items() {
			rr.Recent = append(rr.Recent, renderRequest(r))
		}
		for _, r := range sh.slow {
			rr.Slowest = append(rr.Slowest, renderRequest(r))
		}
		d.Routes[route] = rr
	}
	return d
}
