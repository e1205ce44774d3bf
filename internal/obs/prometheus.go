package obs

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), in lexicographic name order so the
// output is stable for scraping diffs and golden tests.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ms := r.collect()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	var b strings.Builder
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		switch v := m.v.(type) {
		case *Counter:
			fmt.Fprintf(&b, "# TYPE %s counter\n", m.name)
			fmt.Fprintf(&b, "%s %d\n", m.name, v.Value())
		case *Gauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n", m.name)
			fmt.Fprintf(&b, "%s %d\n", m.name, v.Value())
		case *FloatGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n", m.name)
			fmt.Fprintf(&b, "%s %s\n", m.name, FormatFloat(v.Value()))
		case *Histogram:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", m.name)
			cum := v.snapshot()
			for i, ub := range v.bounds {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, FormatFloat(ub), cum[i])
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum[len(cum)-1])
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, FormatFloat(v.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, v.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns the current value of every registered metric keyed by
// name. Histograms contribute <name>_count and <name>_sum entries. This is
// the expvar view of the registry.
func (r *Registry) Snapshot() map[string]any {
	ms := r.collect()
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		switch v := m.v.(type) {
		case *Counter:
			out[m.name] = v.Value()
		case *Gauge:
			out[m.name] = v.Value()
		case *FloatGauge:
			out[m.name] = v.Value()
		case *Histogram:
			out[m.name+"_count"] = v.Count()
			out[m.name+"_sum"] = v.Sum()
		}
	}
	return out
}

var publishOnce sync.Once

// PublishExpvar bridges the Default registry into the process expvar map
// under the "countryrank" key, so /debug/vars shows the same numbers as
// /metrics. Safe to call repeatedly; only the first call publishes.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("countryrank", expvar.Func(func() any {
			return Default.Snapshot()
		}))
	})
}
