package obs

import (
	"runtime"
	"sync"
)

var runtimeOnce sync.Once

// EnableRuntimeMetrics registers the countryrank_go_* self-metrics — the
// process's own health (goroutine count, heap) beside its request metrics —
// in the Default registry. They are read from the runtime whenever the
// registry is (Registry.OnCollect), not on a goroutine of their own, so an
// idle process pays nothing. Idempotent; CmdFlags.Setup calls it for every
// cmd.
func EnableRuntimeMetrics() {
	runtimeOnce.Do(func() {
		goroutines := NewGauge("countryrank_go_goroutines",
			"current goroutine count (refreshed on scrape)")
		heapAlloc := NewGauge("countryrank_go_heap_alloc_bytes",
			"bytes of allocated heap objects (refreshed on scrape)")
		Default.OnCollect(func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			goroutines.Set(int64(runtime.NumGoroutine()))
			heapAlloc.Set(int64(ms.HeapAlloc))
		})
	})
}
