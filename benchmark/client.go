package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load is closed-loop: connsPerCPU × nproc connections, one goroutine
// each, the next request sent when the previous reply has been read. Rankings are fetched
// by scripts and dashboards that wait for each reply. Open-loop pacing was
// tried and rejected on this class of host: at 2,000 req/s on 2
// connections three identical runs gave p99-from-due-time of 3.7, 6.3 and
// 44 ms, because time.Sleep overshoot and host scheduling dominate.
//
// The mix is cmd/loadgen's: 70 % /v1/countries/{cc}, 25 %
// /v1/top/{m}?n=1..10, 5 % /v1/snapshot, and half of the eligible requests
// revalidate with If-None-Match.

const (
	maxTopN      = 10
	revalidate   = 0.5
	hashEveryNth = 16
)

// load is the state the client goroutines share.
type load struct {
	base      string
	ccs, tops []string
	// done counts completed 200/304 responses; failed everything else.
	done, failed, notModified atomic.Int64
	// epoch is the highest epoch any worker has read from a /v1/snapshot
	// body: how the rollover trigger learns a new epoch is being served
	// without sending requests of its own.
	epoch atomic.Int64
	stop  atomic.Bool

	mu       sync.Mutex
	failures []string
	// lat holds every request's latency in ns, merged per worker at the
	// end; nil in untraced runs, which only count.
	lat []int64
}

func (l *load) fail(format string, args ...any) {
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// sawEpoch raises l.epoch to e if e is newer.
func (l *load) sawEpoch(e int64) {
	for {
		cur := l.epoch.Load()
		if e <= cur || l.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// run drives conns closed-loop connections until l.stop is set, then
// returns. record keeps per-request latencies (traced runs only).
func (l *load) run(seed int64, conns int, record bool) {
	transport := &http.Transport{MaxIdleConns: conns * 2, MaxIdleConnsPerHost: conns * 2}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := l.worker(client, rand.New(rand.NewSource(seed+int64(i)*7919)), record)
			l.mu.Lock()
			l.lat = append(l.lat, lat...)
			l.mu.Unlock()
		}()
	}
	wg.Wait()
}

func (l *load) worker(client *http.Client, rng *rand.Rand, record bool) (lat []int64) {
	etags := map[string]string{}
	var n int
	var body bytes.Buffer
	for !l.stop.Load() {
		var url string
		isMeta := false
		switch p := rng.Float64(); {
		case p < 0.70:
			url = l.base + "/v1/countries/" + l.ccs[rng.Intn(len(l.ccs))]
		case p < 0.95:
			url = l.base + "/v1/top/" + l.tops[rng.Intn(len(l.tops))] + "?n=" + strconv.Itoa(1+rng.Intn(maxTopN))
		default:
			url = l.base + "/v1/snapshot"
			isMeta = true
		}
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			l.fail("%v", err)
			return lat
		}
		conditional := false
		if !isMeta && rng.Float64() < revalidate {
			if etag, ok := etags[url]; ok {
				req.Header.Set("If-None-Match", etag)
				conditional = true
			}
		}
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			l.fail("%s: %v", url, err)
			continue
		}
		body.Reset()
		_, err = io.Copy(&body, resp.Body)
		resp.Body.Close()
		if record {
			lat = append(lat, time.Since(start).Nanoseconds())
		}
		if err != nil {
			l.fail("%s: read body: %v", url, err)
			continue
		}
		etag := resp.Header.Get("ETag")
		switch resp.StatusCode {
		case http.StatusOK:
			n++
			if etag == "" {
				l.fail("%s: 200 without an ETag", url)
				continue
			}
			// Hashing every body would make the client the bottleneck;
			// every 16th still checks thousands of bodies per run.
			if n%hashEveryNth == 0 {
				sum := sha256.Sum256(body.Bytes())
				if want := `"` + hex.EncodeToString(sum[:]) + `"`; etag != want {
					l.fail("%s: body hashes to %s but ETag is %s", url, want, etag)
					continue
				}
			}
			if isMeta {
				if e, ok := metaEpoch(body.Bytes()); ok {
					l.sawEpoch(e)
				}
			}
		case http.StatusNotModified:
			if !conditional {
				l.fail("%s: 304 answered a request that sent no If-None-Match", url)
				continue
			}
			l.notModified.Add(1)
		default:
			l.fail("%s: status %d", url, resp.StatusCode)
			continue
		}
		if etag != "" { // a 304 may omit it
			etags[url] = etag
		}
		l.done.Add(1)
	}
	return lat
}

// metaEpoch reads the epoch from a /v1/snapshot body, which begins
// {"epoch":N, — decoding the whole page per request would cost the client
// more than the server spends serving it.
func metaEpoch(body []byte) (int64, bool) {
	const prefix = `{"epoch":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return 0, false
	}
	rest := body[len(prefix):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, false
	}
	e, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	return e, err == nil
}
