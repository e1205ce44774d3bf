package obs

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
	"time"
)

// This file exports a Trace in the Chrome trace-event JSON format, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Spans become complete
// ("X") events; span events become thread-scoped instant ("i") events. The
// single-threaded pipeline spine lands on track 0, and fan-out children
// whose lifetimes partially overlap are flattened onto synthetic extra
// tracks so viewers never see two half-overlapping slices on one row.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTraceFile is the top-level JSON object Perfetto expects. OtherData
// is the format's slot for free-form metadata; it says how many root spans
// the trace let go before the ones exported.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent    `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	OtherData       map[string]int64 `json:"otherData,omitempty"`
}

// endLocked is when the span ended; an open span gets now as a provisional
// end. Caller holds the trace lock.
func (s *Span) endLocked(now time.Time) time.Time {
	if s.ended {
		return s.start.Add(s.dur)
	}
	return now
}

// assignTracks gives each span a track (tid) such that any two spans on the
// same track are either disjoint in time or strictly nested — the invariant
// trace viewers need to stack slices correctly. The greedy first-fit keeps
// the sequential pipeline spine on track 0 and spills partially-overlapping
// fan-out children onto fresh tracks.
func assignTracks(spans []*Span, now time.Time) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if !sa.start.Equal(sb.start) {
			return sa.start.Before(sb.start)
		}
		return sa.endLocked(now).After(sb.endLocked(now)) // longer first, so containers precede content
	})
	tids := make([]int, len(spans))
	var tracks [][]time.Time // per track: stack of open interval ends
	for _, i := range order {
		start, end := spans[i].start, spans[i].endLocked(now)
		placed := false
		for ti := range tracks {
			st := tracks[ti]
			for len(st) > 0 && !st[len(st)-1].After(start) {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || !end.After(st[len(st)-1]) {
				tracks[ti] = append(st, end)
				tids[i] = ti
				placed = true
				break
			}
			tracks[ti] = st
		}
		if !placed {
			tracks = append(tracks, []time.Time{end})
			tids[i] = len(tracks) - 1
		}
	}
	return tids
}

// WriteChromeTrace renders the trace's retained roots (including still-open
// spans) as Chrome trace-event JSON. The time origin is the earliest
// recorded span start; timestamps and durations are microseconds, with
// durations clamped to at least 1µs so zero-length spans stay visible.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.chromeFile(time.Now()))
}

// chromeFile builds the export under the trace lock, which Start also
// needs: that is bounded work, the trace holding at most traceRoots
// subtrees, and the JSON encoding happens after it is released.
func (t *Trace) chromeFile(now time.Time) chromeTraceFile {
	t.mu.Lock()
	defer t.mu.Unlock()
	file := chromeTraceFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if n := t.roots.Dropped(); n > 0 {
		file.OtherData = map[string]int64{"dropped_roots": n}
	}
	var spans []*Span // roots oldest first, each span before its children
	var walk func(s *Span)
	walk = func(s *Span) {
		spans = append(spans, s)
		for _, c := range s.children {
			walk(c)
		}
	}
	for _, r := range t.roots.Items() {
		walk(r)
	}
	if len(spans) == 0 {
		return file
	}
	epoch := spans[0].start
	for _, s := range spans {
		if s.start.Before(epoch) {
			epoch = s.start
		}
	}
	tids := assignTracks(spans, now)
	file.TraceEvents = append(file.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]any{"name": "countryrank"},
	})
	for tid, last := 0, slices.Max(tids); tid <= last; tid++ {
		label := "pipeline"
		if tid > 0 {
			label = "fan-out"
		}
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": label},
		})
	}
	for i, s := range spans {
		d := s.endLocked(now).Sub(s.start)
		args := map[string]any{"span_id": s.id}
		if s.parent != nil {
			args["parent_id"] = s.parent.id
		}
		if items := s.items.Load(); items > 0 {
			args[nonEmpty(s.unit, "items")] = items
			if d > 0 {
				args["per_second"] = float64(items) / d.Seconds()
			}
		}
		if !s.ended {
			args["open"] = true
		}
		for _, a := range s.attrs {
			args[a.Key] = a.Value
		}
		dur := d.Microseconds()
		if dur < 1 {
			dur = 1
		}
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: s.Name, Phase: "X",
			TS: s.start.Sub(epoch).Microseconds(), Dur: dur,
			PID: 1, TID: tids[i], Args: args,
		})
		for _, ev := range s.events {
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: ev.Name, Phase: "i",
				TS:  ev.At.Sub(epoch).Microseconds(),
				PID: 1, TID: tids[i], Scope: "t",
				Args: map[string]any{"span_id": s.id},
			})
		}
	}
	return file
}
