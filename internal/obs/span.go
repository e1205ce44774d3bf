package obs

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Trace records a hierarchy of timed stages. Start opens a span under the
// most recently started still-open span (the common single-threaded nesting
// of a pipeline run); concurrent sections attach children to an explicit
// parent with Span.Child instead. Structure is best-effort under
// concurrency — spans never cycle, but interleaved Start calls from
// different goroutines may parent to whichever span is current.
//
// The trace keeps its last traceRoots root spans (with their subtrees) and
// counts the roots it let go, so a daemon that records the same stages epoch
// after epoch holds, renders and exports a bounded record.
type Trace struct {
	mu      sync.Mutex
	roots   *Ring[*Span] // created by the first Start
	current *Span
	nextID  uint64

	// OnStart and OnEnd, when set, are invoked for every span as it opens
	// and closes — the hook -progress style streaming reports attach to.
	// Set them before the first Start; they run outside the trace lock.
	OnStart func(*Span)
	OnEnd   func(*Span)
}

// traceRoots is how many root spans a Trace retains. A rankd epoch opens two
// (the pipeline and the snapshot build, nine spans between them), so this is
// the last 16 epochs; the largest batch run, cmd/experiments, opens 19.
const traceRoots = 32

// DefaultTrace is the process-wide trace the pipeline records into.
var DefaultTrace = &Trace{}

// A Span is one timed stage. It is safe to add items and children from
// multiple goroutines; End must be called exactly once.
type Span struct {
	Name  string
	trace *Trace

	id       uint64
	parent   *Span
	children []*Span
	start    time.Time
	dur      time.Duration
	ended    bool
	depth    int

	items atomic.Int64
	unit  string

	attrs  []SpanAttr
	events []SpanEvent
}

// A SpanAttr is one key/value annotation on a span, carried into the
// exported trace (and shown as args in Perfetto).
type SpanAttr struct {
	Key   string
	Value any
}

// A SpanEvent is a timestamped point-in-time marker inside a span,
// exported as an instant event on the span's track.
type SpanEvent struct {
	Name string
	At   time.Time
}

// Start opens a root-or-nested span in the trace.
func (t *Trace) Start(name string) *Span {
	s := &Span{Name: name, trace: t, start: time.Now()}
	t.mu.Lock()
	t.nextID++
	s.id = t.nextID
	if t.current != nil && !t.current.ended {
		s.parent = t.current
		s.depth = t.current.depth + 1
		t.current.children = append(t.current.children, s)
	} else {
		if t.roots == nil {
			t.roots = NewRing[*Span](traceRoots)
		}
		t.roots.Push(s)
	}
	t.current = s
	hook := t.OnStart
	t.mu.Unlock()
	if hook != nil {
		hook(s)
	}
	return s
}

// StartSpan opens a span in the DefaultTrace.
func StartSpan(name string) *Span { return DefaultTrace.Start(name) }

// StartDetached opens a span that records against t (IDs, attrs, events,
// End) but is not linked into the trace's root list or current-pointer
// nesting. Detached spans are for high-churn per-request tracing: they are
// reclaimed by the GC as soon as the caller drops them, so a long-running
// server does not accumulate an unbounded span tree.
func (t *Trace) StartDetached(name string) *Span {
	s := &Span{Name: name, trace: t, start: time.Now()}
	t.mu.Lock()
	t.nextID++
	s.id = t.nextID
	t.mu.Unlock()
	return s
}

// Child opens a nested span under s without moving the trace's current
// pointer, which makes it safe to call from fan-out goroutines.
func (s *Span) Child(name string) *Span {
	c := &Span{Name: name, trace: s.trace, parent: s, depth: s.depth + 1, start: time.Now()}
	t := s.trace
	t.mu.Lock()
	t.nextID++
	c.id = t.nextID
	s.children = append(s.children, c)
	hook := t.OnStart
	t.mu.Unlock()
	if hook != nil {
		hook(c)
	}
	return c
}

// ID returns the span's trace-unique identifier (1-based, in start order).
func (s *Span) ID() uint64 { return s.id }

// SetAttr attaches (or replaces) a key/value annotation on the span. Values
// should be JSON-encodable; they surface in the exported Chrome trace args.
func (s *Span) SetAttr(key string, value any) {
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, SpanAttr{Key: key, Value: value})
}

// Attrs returns a copy of the span's annotations.
func (s *Span) Attrs() []SpanAttr {
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanAttr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Event records a timestamped marker inside the span (a retry, a phase
// boundary…), exported as an instant event on the span's trace track. A nil
// span ignores it: that is a request the sampler declined.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	ev := SpanEvent{Name: name, At: time.Now()}
	t := s.trace
	t.mu.Lock()
	s.events = append(s.events, ev)
	t.mu.Unlock()
}

// Events returns a copy of the span's recorded events.
func (s *Span) Events() []SpanEvent {
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, len(s.events))
	copy(out, s.events)
	return out
}

// AddItems accumulates a work count on the span (trials run, records
// decoded…); unit names the count in reports. The last non-empty unit wins.
func (s *Span) AddItems(n int64, unit string) {
	s.items.Add(n)
	if unit != "" {
		s.trace.mu.Lock()
		s.unit = unit
		s.trace.mu.Unlock()
	}
}

// End closes the span, returns its duration, and fires the trace's OnEnd
// hook. When slog's debug level is enabled the span also emits a structured
// stage log (stage, duration, items). Ending a nil span does nothing.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	t := s.trace
	t.mu.Lock()
	if !s.ended {
		s.dur = d
		s.ended = true
		if t.current == s {
			t.current = s.parent
		}
	}
	hook := t.OnEnd
	t.mu.Unlock()
	if hook != nil {
		hook(s)
	}
	if l := slog.Default(); l.Enabled(context.Background(), slog.LevelDebug) {
		items, unit := s.Items()
		attrs := []slog.Attr{
			slog.String("stage", s.Name),
			slog.Duration("duration", d),
		}
		if items > 0 {
			attrs = append(attrs, slog.Int64(nonEmpty(unit, "items"), items))
			if d > 0 {
				attrs = append(attrs, slog.String("rate", formatRate(float64(items)/d.Seconds())+"/s"))
			}
		}
		l.LogAttrs(context.Background(), slog.LevelDebug, "stage done", attrs...)
	}
	return d
}

func nonEmpty(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

// Duration returns the span's measured duration (elapsed time so far when
// the span is still open).
func (s *Span) Duration() time.Duration {
	s.trace.mu.Lock()
	ended, d := s.ended, s.dur
	s.trace.mu.Unlock()
	if ended {
		return d
	}
	return time.Since(s.start)
}

// Depth returns the span's nesting depth (0 for roots).
func (s *Span) Depth() int { return s.depth }

// Items returns the span's own item count and unit.
func (s *Span) Items() (int64, string) {
	s.trace.mu.Lock()
	unit := s.unit
	s.trace.mu.Unlock()
	return s.items.Load(), unit
}

// TotalItems sums the span's items with all its descendants'; the unit is
// the first non-empty one found depth-first.
func (s *Span) TotalItems() (int64, string) {
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	return s.totalLocked()
}

func (s *Span) totalLocked() (int64, string) {
	n, unit := s.items.Load(), s.unit
	for _, c := range s.children {
		cn, cu := c.totalLocked()
		n += cn
		if unit == "" {
			unit = cu
		}
	}
	return n, unit
}

// Render formats the recorded spans as an indented tree with durations,
// item counts, and each child's share of its parent — the one-shot stage
// report. When the trace has let roots go, the first line says how many.
func (t *Trace) Render() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := t.roots.Items()
	var b strings.Builder
	if n := t.roots.Dropped(); n > 0 {
		fmt.Fprintf(&b, "(%d earlier root spans dropped; the last %d follow)\n", n, len(roots))
	}
	for _, s := range roots {
		s.renderLocked(&b, 0, 0)
	}
	return b.String()
}

func (s *Span) renderLocked(b *strings.Builder, indent int, parentDur time.Duration) {
	d := s.dur
	if !s.ended {
		d = time.Since(s.start)
	}
	// Deep trees would drive the name padding negative past depth 16, which
	// %-*s rejects ("%!(BADWIDTH)"); clamp so arbitrarily deep spans render.
	pad := 32 - indent*2
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(b, "%*s%-*s %10s", indent*2, "", pad, s.Name, d.Round(time.Microsecond))
	if parentDur > 0 {
		fmt.Fprintf(b, " %5.1f%%", 100*float64(d)/float64(parentDur))
	}
	if n := s.items.Load(); n > 0 {
		fmt.Fprintf(b, "  [%d %s", n, nonEmpty(s.unit, "items"))
		if d > 0 {
			fmt.Fprintf(b, ", %s/s", formatRate(float64(n)/d.Seconds()))
		}
		b.WriteByte(']')
	}
	if !s.ended {
		b.WriteString("  (open)")
	}
	b.WriteByte('\n')
	for _, c := range s.children {
		c.renderLocked(b, indent+1, d)
	}
}

// formatRate renders an items-per-second rate compactly: whole numbers once
// the rate is fast, three significant digits below that.
func formatRate(r float64) string {
	if r >= 100 {
		return strconv.FormatFloat(r, 'f', 0, 64)
	}
	return strconv.FormatFloat(r, 'g', 3, 64)
}
