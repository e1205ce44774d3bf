package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// OrderedMap runs produce(i) for every i in [0, n) across at most
// min(n, GOMAXPROCS) goroutines and feeds each result to consume(i, v) in
// strict index order on the caller's goroutine. It is the pipelined variant
// of ForEach for fan-outs whose merge must be deterministic AND must not
// hold every partial result at once: at most workers+1 indexes are claimed
// but not yet consumed, so a worker that runs far ahead of the merge blocks
// instead of accumulating memory.
//
// With GOMAXPROCS=1 the calls run inline, strictly alternating
// produce(i), consume(i), in index order.
func OrderedMap[T any](n int, produce func(int) T, consume func(int, T)) {
	if n <= 0 {
		return
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			consume(i, produce(i))
		}
		return
	}
	window := min(workers+1, n)

	// A worker sends a token before it claims an index and the merge takes
	// one back after it consumes an index, so at most window indexes are in
	// flight. Taking the token before claiming rules out deadlock: the
	// lowest unconsumed index always holds a token, so its producer runs and
	// the merge advances. A worker that claims past n keeps its token; the
	// buffer has room for one per worker once the merge has taken back n.
	tokens := make(chan struct{}, window)
	results := make([]chan T, n)
	for i := range results {
		results[i] = make(chan T, 1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tokens <- struct{}{}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				results[i] <- produce(i)
			}
		}()
	}

	// The caller's goroutine is the merge: strictly ascending index order.
	for i, r := range results {
		consume(i, <-r)
		<-tokens
	}
	wg.Wait()
}
