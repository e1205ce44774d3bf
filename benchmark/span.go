package main

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the boundary. Parent is an index into the recorder's
// span list (-1 for a root).
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's origin
	Parent     int
	Workload   string
	Mallocs    uint64 // heap objects allocated between Start and End
}

// recorder keeps spans in memory and writes them out when the run ends.
// The traced run calls the layers one after another from one goroutine, so
// the open-span stack needs no lock.
type recorder struct {
	origin   time.Time
	workload string
	spans    []span
	open     []int
}

func newRecorder(workload string) *recorder {
	return &recorder{origin: time.Now(), workload: workload}
}

// do runs f inside a span named name, nested under whatever span is open.
func (r *recorder) do(name string, f func()) {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Workload: r.workload})
	r.open = append(r.open, id)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Since(r.origin)
	f()
	end := time.Since(r.origin)
	runtime.ReadMemStats(&m1)
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id]
	s.Start, s.End, s.Mallocs = start, end, m1.Mallocs-m0.Mallocs
}

// total sums the duration and allocations of every span named name.
func (r *recorder) total(name string) (d time.Duration, mallocs uint64) {
	for _, s := range r.spans {
		if s.Name == name {
			d += s.End - s.Start
			mallocs += s.Mallocs
		}
	}
	return d, mallocs
}

// passTotal is what the spans of one name cost within one pass.
type passTotal struct {
	d       time.Duration
	mallocs uint64
}

// perPass sums the spans named name within each root span that contains
// any, in order. The traced run repeats its layers once per root ("pass"),
// so this yields one sample per repeat.
func (r *recorder) perPass(name string) []passTotal {
	var out []passTotal
	lastRoot := -1
	for i, s := range r.spans {
		if s.Name != name {
			continue
		}
		root := i
		for r.spans[root].Parent != -1 {
			root = r.spans[root].Parent
		}
		if root != lastRoot {
			out = append(out, passTotal{})
			lastRoot = root
		}
		t := &out[len(out)-1]
		t.d += s.End - s.Start
		t.mallocs += s.Mallocs
	}
	return out
}

// selfTime is span id's duration minus the part its direct children cover.
// Children of one parent never overlap here (one goroutine), so the
// covered part is the sum of their durations.
func (r *recorder) selfTime(id int) time.Duration {
	self := r.spans[id].End - r.spans[id].Start
	for _, s := range r.spans {
		if s.Parent == id {
			self -= s.End - s.Start
		}
	}
	return self
}

// writeChrome renders the spans as Chrome trace-event JSON ("X" complete
// events, microseconds), loadable in chrome://tracing or ui.perfetto.dev.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{
				"workload": s.Workload, "parent": s.Parent, "mallocs": s.Mallocs,
				"self_us": float64(r.selfTime(i)) / float64(time.Microsecond),
			},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// spanCost times the recorder itself: the mean cost of one empty span. The
// traced run multiplies it by the spans it recorded to state its overhead.
func spanCost() time.Duration {
	const n = 2000
	r := newRecorder("calibrate")
	start := time.Now()
	for range n {
		r.do("empty", func() {})
	}
	return time.Since(start) / n
}
