// Command loadgen drives a running rankd over real HTTP and records the
// serving latency distribution as a JSON snapshot. CI runs it as a gate:
// the rankd smoke requires zero failed requests and the drift extras in the
// snapshot, the shed smoke that designed 503s are classed apart from errors.
//
// It discovers the served countries from /v1/snapshot, then fans -conc
// workers out over a request mix (country pages, top-N queries, snapshot
// metadata), revalidating a fraction of requests with If-None-Match to
// exercise the 304 fast path. Per-class p50/p99/p999 latency and overall
// req/s are computed from every recorded sample; server-side allocations
// per request come from the memstats delta between two /debug/vars scrapes
// bracketing the run (this counts the whole process — net/http connection
// machinery included — not just the handler, whose zero-alloc guarantee the
// guard test pins).
//
// Non-2xx/non-304 responses and transport failures are counted per class
// and reported in the snapshot. A `503 + Retry-After` — the server's
// admission gate shedding load by design — is its own class (ServeShed),
// counted toward req/s and reported as shed_rate but never toward
// -max-error-rate; when the server runs with -slo and the
// access-log/trace hooks, the post-run scrape of /debug/slo and the
// countryrank expvar bridge records burn rates and observability overhead
// (events logged/dropped, traces sampled) alongside the latency numbers.
//
// Usage:
//
//	loadgen [-url BASE] [-duration D] [-conc N] [-revalidate F] [-n N]
//	        [-out FILE] [-seed N] [-max-error-rate F] [-v LEVEL]
//
// Exit status is non-zero when the error rate exceeds -max-error-rate
// (default 0: any failed request fails the run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"countryrank/internal/obs"
)

// result is one request class's measurement: NsPerOp is the p50 request
// latency, AllocsOp the server-side allocations per request, and Extra
// carries p99_ns / p999_ns / req_per_s and the scraped server counters.
type result struct {
	Name     string             `json:"name"`
	Iters    int64              `json:"iters"`
	NsPerOp  float64            `json:"ns_per_op"`
	AllocsOp float64            `json:"allocs_per_op,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

// snapshot is the file -out receives.
type snapshot struct {
	Date      string   `json:"date"`
	Bench     string   `json:"bench"`
	BenchTime string   `json:"benchtime"`
	Results   []result `json:"results"`
}

// class indexes one request/response population we report separately.
type class int

const (
	clCountry200 class = iota
	clCountry304
	clTop200
	clTop304
	clSnapshot
	// clShed is a 503 + Retry-After from the server's admission gate: the
	// server refusing work by design, not failing at it. Shed responses are
	// their own population — counted toward req/s and reported as a rate,
	// but never toward the error budget, so -max-error-rate doesn't fail a
	// run where shedding worked exactly as intended.
	clShed
	numClasses
)

var classNames = [numClasses]string{
	"ServeCountry", "ServeCountry304", "ServeTop", "ServeTop304", "ServeSnapshotMeta", "ServeShed",
}

// sample is one timed request.
type sample struct {
	cl class
	ns int64
}

// worker owns its RNG, its ETag cache, and its sample slice so the hot loop
// shares nothing with other workers.
type worker struct {
	rng     *rand.Rand
	client  *http.Client
	base    string
	ccs     []string
	tops    []string
	maxN    int
	reval   float64
	etags   map[string]string
	samples []sample
	errs    []string
	errN    [numClasses]int64 // failed requests by the class they targeted
}

func (w *worker) run(deadline time.Time) {
	for time.Now().Before(deadline) {
		var url string
		cl := clSnapshot
		switch p := w.rng.Float64(); {
		case p < 0.70:
			url = w.base + "/v1/countries/" + w.ccs[w.rng.Intn(len(w.ccs))]
			cl = clCountry200
		case p < 0.95:
			url = w.base + "/v1/top/" + w.tops[w.rng.Intn(len(w.tops))] +
				"?n=" + strconv.Itoa(1+w.rng.Intn(w.maxN))
			cl = clTop200
		default:
			url = w.base + "/v1/snapshot"
		}
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			w.errs = append(w.errs, err.Error())
			return
		}
		if cl != clSnapshot && w.rng.Float64() < w.reval {
			if etag, ok := w.etags[url]; ok {
				req.Header.Set("If-None-Match", etag)
			}
		}
		start := time.Now()
		resp, err := w.client.Do(req)
		if err != nil {
			w.errs = append(w.errs, err.Error())
			w.errN[cl]++
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ns := time.Since(start).Nanoseconds()

		switch resp.StatusCode {
		case http.StatusOK:
			// keep the 200 class chosen above
		case http.StatusNotModified:
			if cl == clCountry200 {
				cl = clCountry304
			} else {
				cl = clTop304
			}
		case http.StatusServiceUnavailable:
			if resp.Header.Get("Retry-After") == "" {
				// A bare 503 (no snapshot, SLO-degraded healthz dependency)
				// is a real failure; only the admission gate's designed
				// refusal carries Retry-After.
				w.errs = append(w.errs, fmt.Sprintf("%s: status %d", url, resp.StatusCode))
				w.errN[cl]++
				continue
			}
			cl = clShed
		default:
			w.errs = append(w.errs, fmt.Sprintf("%s: status %d", url, resp.StatusCode))
			w.errN[cl]++
			continue
		}
		if etag := resp.Header.Get("ETag"); etag != "" {
			w.etags[url] = etag
		}
		w.samples = append(w.samples, sample{cl, ns})
	}
}

func main() {
	base := flag.String("url", "http://127.0.0.1:8080", "rankd base URL")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load")
	conc := flag.Int("conc", 8, "concurrent workers")
	reval := flag.Float64("revalidate", 0.5, "fraction of eligible requests sent with If-None-Match")
	maxN := flag.Int("n", 10, "top-N requests draw n uniformly from [1, this]")
	out := flag.String("out", "", "output path (default BENCH_<date>_serving.json)")
	seed := flag.Int64("seed", 1, "request-mix RNG seed")
	maxErrRate := flag.Float64("max-error-rate", 0, "fail the run when errors/requests exceeds this fraction")
	ofl := obs.FlagsOn(flag.CommandLine, "loadgen")
	flag.Parse()
	ofl.Init()
	defer ofl.Done()

	ccs, tops, err := discover(*base)
	if err != nil {
		slog.Error("discover /v1/snapshot failed", "url", *base, "err", err)
		os.Exit(1)
	}
	slog.Info("discovered snapshot", "countries", len(ccs), "tops", tops)

	transport := &http.Transport{MaxIdleConns: *conc * 2, MaxIdleConnsPerHost: *conc * 2}
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}

	mallocs0, scrapeOK := scrapeMallocs(*base, client)
	workers := make([]*worker, *conc)
	for i := range workers {
		workers[i] = &worker{
			rng:    rand.New(rand.NewSource(*seed + int64(i)*7919)),
			client: client, base: *base, ccs: ccs, tops: tops,
			maxN: *maxN, reval: *reval, etags: map[string]string{},
		}
	}
	sp := obs.StartSpan("loadgen")
	deadline := time.Now().Add(*duration)
	wall := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) { defer wg.Done(); w.run(deadline) }(w)
	}
	wg.Wait()
	elapsed := time.Since(wall)
	mallocs1, scrapeOK2 := scrapeMallocs(*base, client)

	var all []sample
	var errs []string
	var errByClass [numClasses]int64
	for _, w := range workers {
		all = append(all, w.samples...)
		errs = append(errs, w.errs...)
		for cl := range w.errN {
			errByClass[cl] += w.errN[cl]
		}
	}
	sp.AddItems(int64(len(all)), "requests")
	sp.End()
	if len(all) == 0 {
		slog.Error("no successful requests", "errors", len(errs))
		for _, e := range errs[:min(len(errs), 5)] {
			slog.Error("request failed", "err", e)
		}
		os.Exit(1)
	}

	reqPerS := float64(len(all)) / elapsed.Seconds()
	var allocsPerReq float64
	if scrapeOK && scrapeOK2 && mallocs1 >= mallocs0 {
		allocsPerReq = float64(mallocs1-mallocs0) / float64(len(all))
	}

	date := time.Now().UTC().Format("2006-01-02")
	snap := snapshot{
		Date: date, Bench: "serving", BenchTime: duration.String(),
	}
	byClass := make([][]int64, numClasses)
	overall := make([]int64, 0, len(all))
	for _, s := range all {
		byClass[s.cl] = append(byClass[s.cl], s.ns)
		overall = append(overall, s.ns)
	}
	errTotal := int64(len(errs))
	errRate := float64(errTotal) / float64(int64(len(all))+errTotal)
	var shedTotal int64
	for _, s := range all {
		if s.cl == clShed {
			shedTotal++
		}
	}
	shedRate := float64(shedTotal) / float64(int64(len(all))+errTotal)
	fmt.Printf("%-20s %8s %8s %10s %10s %10s\n", "class", "count", "errors", "p50", "p99", "p999")
	addResult := func(name string, ns []int64, errN int64, withRate bool) {
		if len(ns) == 0 {
			return
		}
		slices.Sort(ns)
		p50, p99, p999 := pctl(ns, 0.50), pctl(ns, 0.99), pctl(ns, 0.999)
		r := result{
			Name: name, Iters: int64(len(ns)), NsPerOp: float64(p50),
			Extra: map[string]float64{"p99_ns": float64(p99), "p999_ns": float64(p999)},
		}
		if errN > 0 {
			r.Extra["errors"] = float64(errN)
		}
		if withRate {
			r.Extra["req_per_s"] = reqPerS
			r.Extra["error_rate"] = errRate
			r.Extra["shed_rate"] = shedRate
			r.AllocsOp = allocsPerReq
			// Fold the server's own view of the run in: burn rates from
			// /debug/slo and the observability pipeline's overhead counters,
			// so the snapshot records what the instrumentation cost.
			for k, v := range scrapeServerObs(*base, client) {
				r.Extra[k] = v
			}
		}
		snap.Results = append(snap.Results, r)
		fmt.Printf("%-20s %8d %8d %10s %10s %10s\n", name, len(ns), errN,
			time.Duration(p50).Round(time.Microsecond),
			time.Duration(p99).Round(time.Microsecond),
			time.Duration(p999).Round(time.Microsecond))
	}
	for cl := class(0); cl < numClasses; cl++ {
		addResult(classNames[cl], byClass[cl], errByClass[cl], false)
	}
	addResult("ServeAll", overall, errTotal, true)
	fmt.Printf("total %d requests in %s = %.0f req/s, %.1f server allocs/request, %d shed (rate %.4f), %d errors (rate %.4f)\n",
		len(all), elapsed.Round(time.Millisecond), reqPerS, allocsPerReq, shedTotal, shedRate, errTotal, errRate)

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s_serving.json", date)
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(buf, '\n'), 0o644)
	}
	if err != nil {
		slog.Error("write snapshot failed", "path", path, "err", err)
		os.Exit(1)
	}
	slog.Info("wrote serving snapshot", "path", path, "requests", len(all))

	if errTotal > 0 {
		for _, e := range errs[:min(len(errs), 5)] {
			slog.Warn("request failed", "err", e)
		}
		if errRate > *maxErrRate {
			slog.Error("error rate over budget", "errors", errTotal, "rate", errRate, "max", *maxErrRate)
			os.Exit(1)
		}
		slog.Warn("requests failed within budget", "errors", errTotal, "rate", errRate, "max", *maxErrRate)
	}
}

// pctl reads the q-quantile from ascending-sorted ns (nearest-rank).
func pctl(ns []int64, q float64) int64 {
	i := int(q * float64(len(ns)))
	if i >= len(ns) {
		i = len(ns) - 1
	}
	return ns[i]
}

// discover fetches /v1/snapshot and returns the served country and top
// metric lists.
func discover(base string) (ccs, tops []string, err error) {
	resp, err := http.Get(base + "/v1/snapshot")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var meta struct {
		Countries []string `json:"countries"`
		Tops      []string `json:"tops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return nil, nil, err
	}
	if len(meta.Countries) == 0 || len(meta.Tops) == 0 {
		return nil, nil, fmt.Errorf("snapshot serves %d countries, %d tops", len(meta.Countries), len(meta.Tops))
	}
	return meta.Countries, meta.Tops, nil
}

// scrapeServerObs collects the server's observability state after the run:
// burn rates and degraded flag from /debug/slo (absent when the server runs
// without -slo), the sampled-trace count from /debug/requests, plus
// access-log and drift-layer counters (churn score, history-ring depth)
// from the countryrank expvar bridge, so the
// snapshot records the drift layer's overhead like the rest of the
// instrumentation. Everything is best-effort — an unreachable
// or uninstrumented server just yields fewer keys.
func scrapeServerObs(base string, client *http.Client) map[string]float64 {
	out := map[string]float64{}
	if resp, err := client.Get(base + "/debug/slo"); err == nil {
		var st struct {
			Objectives []struct {
				Name string `json:"name"`
				Fast struct {
					Burn float64 `json:"burn"`
				} `json:"fast"`
				Slow struct {
					Burn float64 `json:"burn"`
				} `json:"slow"`
			} `json:"objectives"`
			Degraded bool `json:"degraded"`
		}
		if json.NewDecoder(resp.Body).Decode(&st) == nil {
			for _, o := range st.Objectives {
				out["slo_"+o.Name+"_fast_burn"] = o.Fast.Burn
				out["slo_"+o.Name+"_slow_burn"] = o.Slow.Burn
			}
			if len(st.Objectives) > 0 {
				out["slo_degraded"] = 0
				if st.Degraded {
					out["slo_degraded"] = 1
				}
			}
		}
		resp.Body.Close()
	}
	if resp, err := client.Get(base + "/debug/vars"); err == nil {
		var vars struct {
			Countryrank map[string]float64 `json:"countryrank"`
		}
		if json.NewDecoder(resp.Body).Decode(&vars) == nil {
			for src, dst := range map[string]string{
				"countryrank_accesslog_events_total":    "accesslog_events",
				"countryrank_accesslog_dropped_total":   "accesslog_dropped",
				"countryrank_rankd_shed_total":          "server_shed",
				"countryrank_drift_churn_score":         "drift_churn_score",
				"countryrank_rankd_history_epochs":      "history_epochs",
				"countryrank_drift_rollovers_total":     "drift_rollovers",
				"countryrank_rankd_drift_rejects_total": "drift_rejects",
			} {
				if v, ok := vars.Countryrank[src]; ok && v > 0 {
					out[dst] = v
				}
			}
		}
		resp.Body.Close()
	}
	if resp, err := client.Get(base + "/debug/requests"); err == nil {
		var req struct {
			Sampled float64 `json:"sampled"`
		}
		if json.NewDecoder(resp.Body).Decode(&req) == nil && req.Sampled > 0 {
			out["traces_sampled"] = req.Sampled
		}
		resp.Body.Close()
	}
	return out
}

// scrapeMallocs reads cumulative memstats.Mallocs from the daemon's
// /debug/vars (expvar publishes memstats by default). ok is false when the
// endpoint is unreachable, in which case allocs/request is omitted.
func scrapeMallocs(base string, client *http.Client) (uint64, bool) {
	resp, err := client.Get(base + "/debug/vars")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct {
			Mallocs uint64 `json:"Mallocs"`
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, false
	}
	return vars.Memstats.Mallocs, true
}
