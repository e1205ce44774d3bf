// Package obs is the pipeline's observability layer: a concurrency-safe
// metrics registry (atomic counters, gauges, and fixed-bucket duration
// histograms) with Prometheus text-format and expvar exposition, a
// lightweight span recorder that times pipeline stages hierarchically, and
// an opt-in debug HTTP server serving /metrics, /healthz, expvar, and
// net/http/pprof. Everything is stdlib-only, and the write paths are
// allocation-free (plain atomic adds) so hot loops can be instrumented
// without perturbing the numbers they measure.
//
// Metric names follow the Prometheus convention countryrank_<subsystem>_<name>
// and are validated at registration; registering the same name twice returns
// the existing metric, so package-level metric variables stay cheap to
// declare wherever they are used.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A Counter is a monotonically increasing metric. The zero value is ready to
// use, but counters should normally be created through a Registry so they
// are exposed.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be non-negative; negative adds are
// coerced to zero to keep the counter monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a metric that can go up and down (e.g. goroutines, epoch).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A FloatGauge is a float64-valued gauge (scores, ages) stored as
// atomic bits, so reads and writes stay lock- and allocation-free.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DurationBuckets is the default histogram bucket layout: upper bounds in
// seconds spanning 100µs to 10s, wide enough for every pipeline stage from a
// single kernel run to a full build.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// A Histogram accumulates duration observations into fixed buckets. Writes
// are two atomic adds plus a bucket scan over a small fixed array; there is
// no locking and no allocation.
type Histogram struct {
	bounds []float64 // upper bounds, seconds, ascending
	counts []atomic.Int64
	sumNs  atomic.Int64 // sum of observations, nanoseconds
	count  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	for i, ub := range h.bounds {
		if s <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.sumNs.Add(int64(d))
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }

// snapshot returns cumulative bucket counts aligned with h.bounds plus the
// +Inf bucket (== Count) for exposition.
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.bounds)+1)
	var cum int64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	out[len(h.bounds)] = h.count.Load()
	return out
}

// metric pairs a registered name with its collector: a *Counter, *Gauge,
// *FloatGauge or *Histogram.
type metric struct {
	name string
	help string
	v    any
}

// A Registry holds named metrics and renders them for exposition. The zero
// value is ready to use; most code uses the package-level Default registry
// through NewCounter / NewGauge / NewHistogram.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric
	refresh []func()
}

// Default is the process-wide registry served by the debug server.
var Default = &Registry{}

// register returns r's metric of type T with the given name, building it on
// first use. It panics if the name is invalid or already bound to a metric
// of another type.
func register[T any](r *Registry, name, help string, build func() *T) *T {
	if err := CheckName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = map[string]*metric{}
	}
	m, ok := r.byName[name]
	if !ok {
		m = &metric{name: name, help: help, v: build()}
		r.byName[name] = m
		r.ordered = append(r.ordered, m)
	}
	v, ok := m.v.(*T)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is a %T, not a %T", name, m.v, v))
	}
	return v
}

// OnCollect registers fn to run at the start of every Snapshot and
// WritePrometheus. Series that are read from somewhere else rather than
// written as things happen (the runtime's own numbers, the served
// snapshot's age) refresh in it, so every reader of the registry — /metrics,
// /debug/vars, the manifest — sees current values and an idle process pays
// nothing.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	r.refresh = append(r.refresh, fn)
	r.mu.Unlock()
}

// collect runs the refresh funcs (outside the lock: they write metrics) and
// returns the registered metrics in registration order.
func (r *Registry) collect() []*metric {
	r.mu.Lock()
	fns := r.refresh
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.ordered...)
}

// Counter returns the registry's counter with the given name, creating it if
// needed.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, help, func() *Counter { return &Counter{} })
}

// Gauge returns the registry's gauge with the given name, creating it if
// needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, help, func() *Gauge { return &Gauge{} })
}

// FloatGauge returns the registry's float gauge with the given name,
// creating it if needed.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	return register(r, name, help, func() *FloatGauge { return &FloatGauge{} })
}

// Histogram returns the registry's histogram with the given name, creating
// it with the given bucket upper bounds (nil selects DurationBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return register(r, name, help, func() *Histogram {
		if buckets == nil {
			buckets = DurationBuckets
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
		return &Histogram{bounds: buckets, counts: make([]atomic.Int64, len(buckets))}
	})
}

// NewCounter registers (or fetches) a counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewGauge registers (or fetches) a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewFloatGauge registers (or fetches) a float gauge in the Default registry.
func NewFloatGauge(name, help string) *FloatGauge { return Default.FloatGauge(name, help) }

// NewHistogram registers (or fetches) a duration histogram in the Default
// registry, with DurationBuckets when buckets is nil.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.Histogram(name, help, buckets)
}

// CheckName validates a metric name: the countryrank_ prefix the repo's
// catalogue mandates, and the Prometheus identifier grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func CheckName(name string) error {
	const prefix = "countryrank_"
	if len(name) < len(prefix) || name[:len(prefix)] != prefix {
		return fmt.Errorf("obs: metric name %q lacks the countryrank_ prefix", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return fmt.Errorf("obs: metric name %q starts with a digit", name)
			}
		default:
			return fmt.Errorf("obs: metric name %q has invalid byte %q", name, c)
		}
	}
	return nil
}

// FormatFloat renders a float the way Prometheus clients do: integral values
// below 1e15 without an exponent, +Inf spelled literally. Every float that
// /metrics prints and another tool must match as a string (rankdiff's churn
// score) goes through it.
func FormatFloat(f float64) string {
	if math.IsInf(f, +1) {
		return "+Inf"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}
