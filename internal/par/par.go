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
)

// ForEach runs fn(i) for every i in [0, n), distributing the calls over at
// most min(n, GOMAXPROCS) goroutines, and returns once all calls have
// completed. fn must be safe for concurrent use; with GOMAXPROCS=1 the
// calls run inline in index order.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
}

// Do runs the given functions concurrently and waits for all of them.
func Do(fns ...func()) {
	ForEach(len(fns), func(i int) { fns[i]() })
}
