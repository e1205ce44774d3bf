// Package par provides the bounded fork-join helpers the pipeline's
// embarrassingly-parallel loops share. Work is distributed over at most
// GOMAXPROCS goroutines via an atomic work counter, mirroring the
// propagation pool in routing.BuildCollection; callers keep determinism by
// writing each task's result to its own slot and merging sequentially.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"countryrank/internal/obs"
)

var (
	mTasks = obs.NewCounter("countryrank_par_tasks_total",
		"individual tasks executed by the worker pool")
	mBusy = obs.NewGauge("countryrank_par_workers_busy",
		"worker goroutines currently executing tasks")
)

// ForEach runs fn(i) for every i in [0, n), distributing the calls over at
// most min(n, GOMAXPROCS) goroutines, and returns once all calls have
// completed. fn must be safe for concurrent use; with GOMAXPROCS=1 the
// calls run inline in index order.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		mBusy.Add(1)
		for i := 0; i < n; i++ {
			fn(i)
			mTasks.Inc()
		}
		mBusy.Add(-1)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mBusy.Add(1)
			defer mBusy.Add(-1)
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
				mTasks.Inc()
			}
		}()
	}
	wg.Wait()
}

// Do runs the given functions concurrently and waits for all of them.
func Do(fns ...func()) {
	ForEach(len(fns), func(i int) { fns[i]() })
}
