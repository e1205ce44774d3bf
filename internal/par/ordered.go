package par

import (
	"runtime"
	"sync"
)

// OrderedMap runs produce(i) for every i in [0, n) across at most
// min(n, GOMAXPROCS) goroutines and feeds each result to consume(i, v) in
// strict index order on the caller's goroutine. It is the pipelined variant
// of ForEach for fan-outs whose merge must be deterministic AND must not
// hold every partial result at once: at most window results (default
// workers+1) exist between production and consumption, so a worker that
// runs far ahead of the merge blocks instead of accumulating memory.
//
// With GOMAXPROCS=1 the calls run inline, strictly alternating
// produce(i), consume(i), in index order.
func OrderedMap[T any](n int, window int, produce func(int) T, consume func(int, T)) {
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
			consume(i, produce(i))
			mTasks.Inc()
		}
		mBusy.Add(-1)
		return
	}
	if window <= workers {
		window = workers + 1
	}
	if window > n {
		window = n
	}

	type slot struct {
		v     T
		ready bool
	}
	var (
		mu       sync.Mutex
		produced = sync.NewCond(&mu) // signalled when a slot becomes ready
		consumed = sync.NewCond(&mu) // signalled when the merge frees a slot
		slots    = make([]slot, window)
		next     int // next index to claim for production
		done     int // next index the consumer will merge
		wg       sync.WaitGroup
	)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mBusy.Add(1)
			defer mBusy.Add(-1)
			for {
				mu.Lock()
				i := next
				if i >= n {
					mu.Unlock()
					return
				}
				next++
				// Backpressure: wait until the merge has freed this
				// index's slot in the ring.
				for i-done >= window {
					consumed.Wait()
				}
				mu.Unlock()

				v := produce(i)
				mTasks.Inc()

				mu.Lock()
				slots[i%window] = slot{v: v, ready: true}
				produced.Broadcast()
				mu.Unlock()
			}
		}()
	}

	// The caller's goroutine is the merge: strictly ascending index order.
	for done < n {
		mu.Lock()
		for !slots[done%window].ready {
			produced.Wait()
		}
		v := slots[done%window].v
		slots[done%window] = slot{} // release the value for GC
		mu.Unlock()

		consume(done, v)

		mu.Lock()
		done++
		consumed.Broadcast()
		mu.Unlock()
	}
	wg.Wait()
}
