package obs

import (
	"runtime"
	"sync"
)

var runtimeOnce sync.Once

// EnableRuntimeMetrics registers the countryrank_go_* self-metrics — the
// process's own health (goroutine count, heap, GC pauses) beside its
// request metrics — in the Default registry. They are read from the runtime
// whenever the registry is (Registry.OnCollect), not on a goroutine of
// their own, so an idle process pays nothing. Idempotent; CmdFlags.Init
// calls it for every cmd.
func EnableRuntimeMetrics() {
	runtimeOnce.Do(func() {
		goroutines := NewGauge("countryrank_go_goroutines",
			"current goroutine count (refreshed on scrape)")
		heapAlloc := NewGauge("countryrank_go_heap_alloc_bytes",
			"bytes of allocated heap objects (refreshed on scrape)")
		gomaxprocs := NewGauge("countryrank_go_gomaxprocs",
			"GOMAXPROCS the process runs with")
		gcPause := NewFloatCounter("countryrank_go_gc_pause_seconds_total",
			"cumulative GC stop-the-world pause seconds")
		Default.OnCollect(func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			goroutines.Set(int64(runtime.NumGoroutine()))
			heapAlloc.Set(int64(ms.HeapAlloc))
			gomaxprocs.Set(int64(runtime.GOMAXPROCS(0)))
			gcPause.Set(float64(ms.PauseTotalNs) / 1e9)
		})
	})
}
