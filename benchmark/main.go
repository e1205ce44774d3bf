// Command benchmark measures the whole system the way its users meet it:
// it builds the real rankd, topogen, crank and experiments binaries, runs
// them as child processes and reads wall time, CPU time and peak RSS from
// outside. A separate traced run (-trace 1) times the calls into each
// layer's public functions, in pipeline order, from inside this process.
// End-to-end metrics are never taken from the traced run.
//
// The host's speed changes by the minute, so every untraced run also times
// a fixed reference workload and reports its timings in seconds on the
// reference host (reference.go); seconds as measured are printed beside.
//
// One run of one workload, as the driver invokes it:
//
//	go run ./benchmark -workload NAME -seed N -seconds S -trace 0|1
//
// prints a run header, every metric with n/median/q1/q3/min, and as the
// last line of standard output one JSON object {correct, attempted,
// failed, metrics}. Without -workload, every workload runs untraced and
// then traced, each as a process of its own; -sets 2 does that twice and
// fails if any end-to-end metric differs between the sets by more than
// its bound in BENCHMARK.json.
//
// See README.md in this directory for the metrics, the workloads and what
// is deliberately out of scope.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json lists the
// same names, units and directions; a test keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// One operation is what a user of the workload waits for: an epoch
// (rollover_idle), 1000 completed requests (serve_steady, serve_rollover),
// one topogen + crank -mrt pair (ingest_mrt), one experiments run
// (stability).
var endToEnd = []metricDef{
	{"op_wall_s", "s", "lower"},
	{"op_cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// timedLayers are the span names of the traced run; each yields
// <name>_ms and <name>_allocs.
var timedLayers = []string{
	"topology.build", "routing.propagate", "routing.mrt_export", "routing.mrt_import",
	"geoloc.geolocate", "sanitize.run", "core.process", "cone.starts",
	"core.views", "cone.compute", "hegemony.compute", "rank.new",
	"core.country", "core.global",
	"experiments.figure4", "experiments.figure5",
	"snapshot.build", "snapshot.assemble", "snapshot.diff", "snapshot.publish",
	"snapshot.persist_save", "snapshot.persist_load",
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range timedLayers {
		defs = append(defs, metricDef{l + "_ms", "ms", "lower"}, metricDef{l + "_allocs", "count", "lower"})
	}
	return append(defs,
		metricDef{"routing.records", "count", "higher"},
		metricDef{"routing.mrt_bytes", "bytes", "lower"},
		metricDef{"routing.mrt_export_mb_per_s", "MB/s", "higher"},
		metricDef{"routing.mrt_import_mb_per_s", "MB/s", "higher"},
		metricDef{"sanitize.accept_ratio", "ratio", "higher"},
		metricDef{"core.stability_trials_per_s", "1/s", "higher"},
		metricDef{"snapshot.body_bytes", "bytes", "lower"},
		metricDef{"snapshot.persist_bytes", "bytes", "lower"},
		metricDef{"snapshot.handler_ns_per_req", "ns", "lower"},
		metricDef{"snapshot.handler_allocs_per_req", "count", "lower"},
		metricDef{"par.epoch_cores", "cores", "higher"},
		metricDef{"rankd.epoch_ms", "ms", "lower"},
		metricDef{"rankd.cold_start_ms", "ms", "lower"},
		metricDef{"rankd.warm_start_ms", "ms", "lower"},
		metricDef{"rankd.epoch_unattributed_pct", "%", "lower"},
		metricDef{"rankd.cpu_us_per_req", "us", "lower"},
		metricDef{"rankd.allocs_per_req", "count", "lower"},
		metricDef{"client.cpu_us_per_req", "us", "lower"},
		metricDef{"client.p50_us", "us", "lower"},
		metricDef{"client.p99_us", "us", "lower"},
		metricDef{"client.p999_us", "us", "lower"},
		metricDef{"client.status_304_ratio", "ratio", "higher"},
		metricDef{"http.rankd_rps", "1/s", "higher"},
		metricDef{"http.null_rps", "1/s", "higher"},
		metricDef{"http.rankd_over_null", "ratio", "higher"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}()

// workload is one set of inputs. run measures from outside; trace times
// the layers the workload exercises from inside this process.
type workload struct {
	Name, Why  string
	run, trace func(*bench) error
}

var workloads = []workload{
	{"rollover_idle", "back-to-back rebuilds with no readers: the build layers do all the work, serving almost none", rolloverIdle, traceRollover},
	{"serve_steady", "closed-loop reads of one fixed epoch: handler, net/http and loopback do the work, the build layers none", serveSteady, traceServe},
	{"serve_rollover", "the same reads while epochs rebuild back to back: builds and serving compete for cores and heap", serveRollover, traceServe},
	{"ingest_mrt", "topogen export then crank -mrt import: the MRT codec and path interner do most of the work", ingestMRT, traceIngest},
	{"stability", "thousands of small VP-subset kernel runs (figures 4 and 5) where rollover does a few full-view runs", stability, traceStability},
}

// bench is the state of one run of one workload.
type bench struct {
	wl      workload
	w       world
	seconds time.Duration
	traced  bool
	conns   int
	dir     string // scratch, inside the checkout, removed when the run ends
	bin     string // where set-up left the binaries
	out     io.Writer

	attempted, failed int
	failures          []string
	samples           map[string][]float64
	digest            string
	rec               *recorder
}

// op counts one operation; err != nil makes it a failed one.
func (b *bench) op(err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 8 {
			b.failures = append(b.failures, err.Error())
		}
	}
	return err == nil
}

// check counts one correctness oracle.
func (b *bench) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("oracle: "+format, args...)
	}
	b.op(err)
}

func (b *bench) add(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// connsPerCPU sizes the closed-loop client. With one connection per CPU
// both vCPUs go idle between hand-offs, and on a virtualized host the
// wake-ups cost as much as the work: at 2 connections rankd spent 50 µs of
// CPU per request and runs differed by 10–27 %; at 16 it spent 28 µs and
// runs differed by 6–7 %. Eight per CPU keeps the run queues non-empty, so
// the figures are the program's CPU, not the host's wake-up latency.
const connsPerCPU = 8

// setUp is what has to happen before the first operation can be measured:
// compile the workload's binaries and, for the daemon workloads, start
// rankd cold and wait for its first answer. Its duration is the run's
// setup_s, so work moved from an epoch or a request into start-up shows.
// It happens once per run: the driver takes the median over runs, and the
// seconds a second and third set-up would cost are spent measuring.
func (b *bench) setUp(daemon bool, names ...string) (d *rankd, err error) {
	b.bin = filepath.Join(b.dir, "bin")
	start := time.Now()
	if err := buildBinaries(b.bin, names...); err != nil {
		return nil, err
	}
	if daemon {
		if d, err = startRankd(b.bin, b.w, filepath.Join(b.dir, "snap")); err != nil {
			return nil, err
		}
	}
	b.add("setup_s", time.Since(start).Seconds())
	return d, nil
}

// timeFor reports whether another operation fits in the measured interval:
// the first always does, a later one only if the interval has room for the
// longest seen so far. A run therefore ends within its -seconds, and the
// driver's time budget holds whatever an operation costs.
func (b *bench) timeFor(start time.Time, longest time.Duration) bool {
	return longest == 0 || time.Since(start)+longest <= b.seconds
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs wl once and prints its header and metric table to out.
func runWorkload(wl workload, w world, seconds time.Duration, traced bool, out io.Writer) result {
	b := &bench{
		wl: wl, w: w, seconds: seconds, traced: traced, out: out,
		conns:   connsPerCPU * runtime.NumCPU(),
		samples: map[string][]float64{},
	}
	printHeader(out, wl.Name, w, seconds, traced)
	defs, f := endToEnd, wl.run
	if traced {
		defs, f = perLayer, wl.trace
		b.rec = newRecorder(wl.Name)
	}
	err := os.MkdirAll(".bench_build", 0o755)
	if err == nil {
		b.dir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err == nil {
		defer os.RemoveAll(b.dir)
		if !traced {
			err = b.sampleHost()
		}
		if err == nil {
			err = f(b)
		}
		if err == nil && !traced {
			err = b.sampleHost()
		}
	}
	// Untraced timings are reported in seconds on the reference host
	// (reference.go); the traced run's per-layer figures are raw.
	factor := 1.0
	if err == nil && !traced {
		if factor, err = b.hostFactor(); err == nil {
			ref := summarize(b.samples[hostReference])
			fmt.Fprintf(out, "# host factor %.4f = reference %.4f s (n=%d q1=%.4f q3=%.4f) / nominal %.2f s; every value in s below is divided by it\n",
				factor, ref.Median, ref.N, ref.Q1, ref.Q3, referenceNominal)
		}
	}
	if err != nil {
		// The workload could not run to its end; whatever it was doing
		// is the failed operation.
		b.op(err)
	}
	if traced && err == nil {
		b.finishTrace()
	}

	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		s := summarize(b.samples[d.Name])
		value := s.Median
		if !traced && d.Unit == "s" {
			value /= factor
		}
		res.Metrics[d.Name] = metricValue{value, d.Unit}
		fmt.Fprintf(out, "# %-34s %14.6g %-6s n=%-4d", d.Name, value, d.Unit, s.N)
		if !traced {
			fmt.Fprintf(out, " as measured: median=%.6g q1=%.6g q3=%.6g min=%.6g\n#   samples: %.6g\n", s.Median, s.Q1, s.Q3, s.Min, b.samples[d.Name])
		} else {
			fmt.Fprintf(out, " q1=%.6g q3=%.6g min=%.6g\n", s.Q1, s.Q3, s.Min)
		}
		if !traced && s.N == 0 {
			b.failures = append(b.failures, "no sample for "+d.Name)
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(out, "# output digest: %s\n", b.digest)
	for _, msg := range b.failures {
		fmt.Fprintf(out, "# FAILED: %s\n", msg)
	}
	return res
}

// printHeader records what the run ran on, so two results can be told
// apart by more than their numbers.
func printHeader(out io.Writer, name string, w world, seconds time.Duration, traced bool) {
	commit := "unknown" // the driver's checkout is not a git repository
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	read := func(path string) string {
		b, _ := os.ReadFile(path)
		return strings.TrimSpace(string(b))
	}
	fmt.Fprintf(out, "# workload=%s traced=%v seed=%d scale=%g vpscale=%g seconds=%g\n",
		name, traced, w.seed, w.scale, w.vpscale, seconds.Seconds())
	fmt.Fprintf(out, "# commit=%s go=%s nproc=%d GOMAXPROCS=%d kernel=%s loadavg=%q\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		read("/proc/sys/kernel/osrelease"), read("/proc/loadavg"))
}

func main() {
	if addr := os.Getenv(nullServerEnv); addr != "" {
		nullServer(addr)
		return
	}
	if os.Getenv(referenceEnv) != "" {
		referenceMain()
		return
	}
	name := flag.String("workload", "", "run this workload once and print the contract's result line (default: every workload, untraced then traced)")
	seed := flag.Int64("seed", 1, "world and request-mix seed, the benchmark's only input; children receive -seed, W05's -scale/-vpscale and generated inputs")
	seconds := flag.Float64("seconds", 14, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics from inside this process")
	sets := flag.Int("sets", 1, "without -workload: run the full set this many times and compare medians against the bounds in BENCHMARK.json")
	flag.Parse()
	w := w05
	w.seed = *seed
	dur := time.Duration(*seconds * float64(time.Second))

	if *name != "" {
		i := slices.IndexFunc(workloads, func(wl workload) bool { return wl.Name == *name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		res := runWorkload(workloads[i], w, dur, *trace == 1, os.Stdout)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	if !fullSets(w, dur, *sets) {
		os.Exit(1)
	}
}

// fullSets runs every workload untraced and then traced, n times over, and
// applies the noise protocol: with two or more sets, any end-to-end metric
// whose set medians differ by more than its bound fails the run, and the
// observed difference is printed so bounds come from measured noise. Each
// run is a process of its own, exactly as the driver runs it (and so that
// this process's heap never inflates a child's peak RSS; see usage).
func fullSets(w world, seconds time.Duration, n int) bool {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	ok := true
	medians := map[string][]float64{} // "workload metric" → one value per set
	for set := range n {
		for _, trace := range []string{"0", "1"} {
			for _, wl := range workloads {
				fmt.Printf("\n== set %d %s trace=%s\n", set+1, wl.Name, trace)
				cmd := exec.Command(self, "-seed", fmt.Sprint(w.seed), "-workload", wl.Name, "-seconds", fmt.Sprint(seconds.Seconds()), "-trace", trace)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				os.Stdout.Write(out)
				var res result
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || jerr != nil || !res.Correct {
					ok = false
				}
				if trace == "0" {
					for _, d := range endToEnd {
						key := wl.Name + " " + d.Name
						medians[key] = append(medians[key], res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
	if n < 2 {
		return ok
	}
	file, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	bounds := map[string]float64{}
	for _, m := range file.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	fmt.Printf("\n== agreement between %d sets (largest difference between sets, as a share of the first)\n", n)
	for _, wl := range workloads {
		for _, d := range endToEnd {
			m := medians[wl.Name+" "+d.Name]
			diff := (slices.Max(m) - slices.Min(m)) / m[0]
			verdict := "ok"
			if !(diff <= bounds[d.Name]) {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Printf("%-15s %-12s difference=%.4f bound=%.2f %s\n", wl.Name, d.Name, diff, bounds[d.Name], verdict)
		}
	}
	return ok
}

// benchmarkFile is the part of BENCHMARK.json this program reads back.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		metricDef
		Bound float64
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var f benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	return f, json.Unmarshal(b, &f)
}
