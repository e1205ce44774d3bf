package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// A Timeline samples selected registry metrics at a fixed interval into a
// ring buffer, giving long-running work (collector sessions, stability
// sweeps) metric *history* instead of a point-in-time scrape: /debug/timeline
// serves the buffer as JSON, and Sparkline renders a terminal summary.
// Sampling walks the registry's locked snapshot once per tick, far off any
// hot path; the ring bounds memory no matter how long the run lives.
type Timeline struct {
	reg      *Registry
	interval time.Duration
	names    []string

	mu      sync.Mutex
	start   time.Time
	samples *Ring[timelineSample]

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

type timelineSample struct {
	offset time.Duration
	values []float64
}

// NewTimeline builds a sampler over r at the given (positive) interval,
// keeping the most recent capacity samples. With no names, every metric
// registered at Start time is sampled (histograms as their _count/_sum
// series); otherwise only the named series are.
func NewTimeline(r *Registry, interval time.Duration, capacity int, names ...string) *Timeline {
	return &Timeline{
		reg:      r,
		interval: interval,
		names:    append([]string{}, names...),
		samples:  NewRing[timelineSample](capacity),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start takes an immediate baseline sample and begins ticking on a
// background goroutine until Stop.
func (t *Timeline) Start() {
	t.mu.Lock()
	t.start = time.Now()
	if len(t.names) == 0 {
		for name := range t.reg.Snapshot() {
			t.names = append(t.names, name)
		}
		sort.Strings(t.names)
	}
	t.mu.Unlock()
	t.sample()
	go func() {
		defer close(t.done)
		tick := time.NewTicker(t.interval)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.sample()
			}
		}
	}()
}

// Stop halts sampling and records one final sample so the end state is
// always captured. Safe to call more than once.
func (t *Timeline) Stop() {
	t.stopOnce.Do(func() {
		close(t.stop)
		<-t.done
		t.sample()
	})
}

func (t *Timeline) sample() {
	// Snapshot refreshes the registry's pull-read series first, so a
	// -timeline run replays req/s alongside burn rate and the daemon's own
	// health.
	snap := t.reg.Snapshot()
	t.mu.Lock()
	defer t.mu.Unlock()
	vals := make([]float64, len(t.names))
	for i, name := range t.names {
		vals[i] = toFloat(snap[name])
	}
	t.samples.Push(timelineSample{offset: time.Since(t.start), values: vals})
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	default:
		return 0
	}
}

// TimelineData is the JSON shape of a timeline snapshot: per-series value
// arrays aligned with offsets_ms (milliseconds since sampling started).
type TimelineData struct {
	IntervalSeconds float64              `json:"interval_seconds"`
	Start           string               `json:"start"`
	OffsetsMS       []int64              `json:"offsets_ms"`
	Series          map[string][]float64 `json:"series"`
	DroppedSamples  int64                `json:"dropped_samples,omitempty"`
}

// Snapshot copies the ring (oldest sample first) into a JSON-able report.
func (t *Timeline) Snapshot() TimelineData {
	t.mu.Lock()
	defer t.mu.Unlock()
	ordered := t.samples.Items()
	d := TimelineData{
		IntervalSeconds: t.interval.Seconds(),
		Start:           t.start.UTC().Format(time.RFC3339),
		OffsetsMS:       make([]int64, len(ordered)),
		Series:          make(map[string][]float64, len(t.names)),
		DroppedSamples:  t.samples.Dropped(),
	}
	for i, name := range t.names {
		col := make([]float64, len(ordered))
		for j, s := range ordered {
			col[j] = s.values[i]
		}
		d.Series[name] = col
	}
	for j, s := range ordered {
		d.OffsetsMS[j] = s.offset.Milliseconds()
	}
	return d
}

var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a one-line-per-series terminal summary of the sampled
// window: first and last values plus a min-max-normalized block sparkline
// over the most recent samples (at most 64 per series).
func (t *Timeline) Sparkline() string {
	d := t.Snapshot()
	names := make([]string, 0, len(d.Series))
	for name := range d.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		vals := d.Series[name]
		if len(vals) > 64 {
			vals = vals[len(vals)-64:]
		}
		if len(vals) == 0 {
			continue
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		runes := make([]rune, len(vals))
		for i, v := range vals {
			k := 0
			if hi > lo {
				k = int((v - lo) / (hi - lo) * float64(len(sparkBlocks)-1))
			}
			runes[i] = sparkBlocks[k]
		}
		fmt.Fprintf(&b, "%-56s %12g → %-12g %s\n", name, vals[0], vals[len(vals)-1], string(runes))
	}
	return b.String()
}
