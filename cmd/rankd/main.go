// Command rankd serves country-level AS rankings as a long-running HTTP
// service. It computes the paper's four country metrics (CCI/CCN/AHI/AHN)
// for every country plus the global CCG/AHG rankings, preserializes them
// into an immutable snapshot (internal/snapshot), and serves:
//
//	GET /v1/countries/{cc}          one country's four rankings
//	GET /v1/countries/{cc}/history  the country's rank vectors across the
//	                                last -history epochs (preserialized at
//	                                publish, so still zero-alloc to serve)
//	GET /v1/top/{metric}?n=N        global top-N (ccg, ahg)
//	GET /v1/snapshot                snapshot metadata (epoch, content
//	                                digest, stale/degraded markers)
//
// plus the shared debug surface (/metrics, /healthz, /readyz, /debug/...)
// on the same listener. Responses carry strong ETags and Cache-Control; the
// 200 and 304 paths do zero allocation and zero encoding per request —
// with access logging, SLO accounting, metrics, and admission control
// enabled.
//
// The snapshot lifecycle is crash-safe. Builds run under a supervisor
// (internal/snapshot.Supervisor): a build that panics, errors, or hangs
// never interrupts serving — the last good snapshot stays published while
// failed builds retry with jittered exponential backoff, and SIGHUP/ticker
// triggers arriving mid-build coalesce. With -snapshot-dir, every published
// snapshot is durably persisted (CRC-validated format, atomic writes,
// keep-last-K generations); on boot rankd warm-starts from the newest valid
// generation and serves it immediately — marked "stale" on /v1/snapshot —
// while the first real build runs in the background. The operational
// contract is "serve the last good snapshot, clearly marked stale", never
// "serve nothing".
//
// SIGHUP — or -refresh at an interval — requests a rebuild; the new
// snapshot publishes with an atomic pointer swap and requests in flight
// finish on the snapshot they loaded. SIGINT/SIGTERM cancel any in-flight
// build and drain promptly — also during a cold start, before there is
// anything to serve: the build is cancelled and rankd exits 0.
//
// Usage: rankd [flags]. A size flag below 1 (ranking entries, history
// epochs, kept generations) is a usage error, exit 2. Every flag with its
// default and meaning, and every metric series the daemon links in, is
// listed in testdata/catalogue.txt with the files that read it. The golden
// test that renders that ledger from registerFlags and the registry fails on
// an entry nothing reads, so a flag or series here either has a reader — a
// CI or test assertion, a benchmark or loadgen scrape, a README runbook
// sentence — or is deleted with the code that fed it.
//
// Robustness:
//
//   - -snapshot-dir enables the durable last-good store and warm starts.
//   - -build-timeout bounds one rebuild; a hung build is abandoned and
//     retried with backoff while the last good snapshot keeps serving.
//   - -allow-degraded lets a quorum-degraded rebuild replace a healthy
//     snapshot (default: it is rejected and the healthy one keeps serving).
//   - -stale-after flips /readyz to 503 once the served snapshot's age
//     exceeds it — readiness, distinct from /healthz liveness, so a load
//     balancer can rotate a stale replica out without restarting it.
//   - -max-inflight sheds requests beyond that concurrency with
//     503 + Retry-After instead of queueing without bound.
//
// Observability:
//
//   - -access-log writes one wide JSON event per request ("-" for stderr)
//     through a bounded channel to one writer goroutine (full: the event is
//     dropped and counted), head-sampled by -access-log-sample; errors
//     and requests slower than -access-log-slow are always logged. The file
//     is opened append-mode, so restarts (a designed-for event) extend the
//     log instead of truncating it.
//   - -trace-sample promotes that fraction of requests to full traces,
//     inspectable at /debug/requests (active, recent, slowest per route).
//   - -slo (e.g. "availability=99.9,latency=99.9@5ms" or "default") tracks
//     burn rates at /debug/slo and flips /healthz to 503 degraded while the
//     fast burn exceeds its trip threshold.
//   - -slow-probe delays requests whose query carries probe=slow — a CI
//     hook for exercising the degraded flip.
//
// Drift and history: every rollover is diffed against the outgoing
// snapshot (internal/snapshot.Diff) — the max churn score and rank move
// export as countryrank_drift_* metrics, the drift summary lands in the
// manifest, and per-metric churn, entered and exited ASes accumulate in an
// epoch history ring (-history K) served at /debug/history and per country
// at /v1/countries/{cc}/history. -drift-gate SCORE refuses to publish a
// rebuild whose churn exceeds the threshold (like the degraded gate:
// logged, counted, no backoff; 0 publishes whatever the drift). cmd/rankdiff
// renders the same diff offline from two persisted generations.
//
// -manifest writes the provenance manifest as soon as the first snapshot is
// published (not at exit), recording the serving config and the snapshot
// content digest, so a scrape can be traced to the exact bytes served
// while the daemon is still running. At shutdown the manifest is rewritten
// with the final SLO burn state as notes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"countryrank/internal/core"
	"countryrank/internal/obs"
	"countryrank/internal/snapshot"
)

// options are rankd's own flags (the shared observability set is
// obs.CmdFlags).
type options struct {
	addr          string
	world         core.Options // -seed, -scale, -vpscale, -shards
	topn          int
	refresh       time.Duration
	snapshotDir   string
	snapshotKeep  int
	allowDegraded bool
	driftGate     float64
	history       int
	seedStep      int64
	buildTimeout  time.Duration
	staleAfter    time.Duration
	maxInflight   int
	accessLog     string
	accessSample  int
	accessSlow    time.Duration
	traceSample   float64
	slo           string
	slowProbe     time.Duration
}

// registerFlags declares every rankd flag on fs. main and the catalogue
// golden share it, so the catalogue cannot drift from the binary.
func registerFlags(fs *flag.FlagSet) (*options, *obs.CmdFlags) {
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "serve the snapshot API (and debug endpoints) on this host:port")
	fs.Int64Var(&o.world.Seed, "seed", 1, "world seed")
	fs.Float64Var(&o.world.StubScale, "scale", 1, "stub-count scale factor")
	fs.Float64Var(&o.world.VPScale, "vpscale", 1, "VP-count scale factor")
	fs.IntVar(&o.topn, "topn", snapshot.DefaultMaxTopN, "max entries per ranking and /v1/top ?n= cap")
	fs.DurationVar(&o.refresh, "refresh", 0, "recompute and atomically swap the snapshot at this interval (0 = only on SIGHUP)")
	fs.IntVar(&o.world.Routing.Shards, "shards", 0, "propagation shards (0 = 4×GOMAXPROCS)")
	fs.StringVar(&o.snapshotDir, "snapshot-dir", "", "durably persist published snapshots here and warm-start from the newest valid generation (empty = off)")
	fs.IntVar(&o.snapshotKeep, "snapshot-keep", snapshot.DefaultKeepGenerations, "on-disk snapshot generations to retain")
	fs.BoolVar(&o.allowDegraded, "allow-degraded", false, "let a quorum-degraded rebuild replace a healthy snapshot")
	fs.Float64Var(&o.driftGate, "drift-gate", 0, "refuse to publish a rebuild whose drift churn score exceeds this (0 = publish whatever the drift; it is computed, logged and exported either way)")
	fs.IntVar(&o.history, "history", snapshot.DefaultHistoryEpochs, "epochs of per-country rank history to retain (/debug/history, /v1/countries/{cc}/history)")
	fs.Int64Var(&o.seedStep, "seed-step", 0, "advance the world seed by this much per epoch so successive rebuilds differ (drift demo / CI hook; 0 = fixed world)")
	fs.DurationVar(&o.buildTimeout, "build-timeout", 0, "abandon a rebuild after this long and retry with backoff (0 = no timeout)")
	fs.DurationVar(&o.staleAfter, "stale-after", 0, "flip /readyz to 503 when the served snapshot is older than this (0 = never)")
	fs.IntVar(&o.maxInflight, "max-inflight", 0, "shed /v1 requests beyond this concurrency with 503 + Retry-After (0 = no limit)")
	fs.StringVar(&o.accessLog, "access-log", "", "write wide-event request logs to this file (\"-\" = stderr, empty = off)")
	fs.IntVar(&o.accessSample, "access-log-sample", 1, "log 1 in N successful responses (0 = none; errors and slow requests always logged)")
	fs.DurationVar(&o.accessSlow, "access-log-slow", 100*time.Millisecond, "always log requests at least this slow (0 disables the override)")
	fs.Float64Var(&o.traceSample, "trace-sample", 0, "fraction of requests promoted to /debug/requests traces (0 = off, 1 = all)")
	fs.StringVar(&o.slo, "slo", "", "serving objectives, e.g. \"availability=99.9,latency=99.9@5ms\" or \"default\" (empty = off)")
	fs.DurationVar(&o.slowProbe, "slow-probe", 0, "delay requests tagged probe=slow by this much (CI latency-injection hook)")
	return o, obs.FlagsOn(fs, "rankd")
}

// check rejects a size below 1, which the snapshot package would otherwise
// replace with its default (100 entries, 8 epochs, 3 generations) unasked.
func (o *options) check() error {
	names := []string{"topn", "history", "snapshot-keep"}
	for i, v := range []int{o.topn, o.history, o.snapshotKeep} {
		if v < 1 {
			return fmt.Errorf("-%s %d: want at least 1", names[i], v)
		}
	}
	return nil
}

func main() {
	o, ofl := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := o.check(); err != nil {
		fmt.Fprintln(flag.CommandLine.Output(), err)
		flag.Usage()
		os.Exit(2)
	}
	ofl.Setup()

	cfg := snapshot.Config{MaxTopN: o.topn}

	ofl.Manifest.Seed("world", o.world.Seed)
	build := func(ctx context.Context, epoch int64) (*snapshot.Snapshot, error) {
		start := time.Now()
		// -seed-step (drift demo / CI hook): each epoch builds a slightly
		// different world, so rollovers produce real rank movement.
		bopt := o.world
		bopt.Seed += (epoch - 1) * o.seedStep
		p, err := core.Run(ctx, core.Generated, bopt)
		if err != nil {
			return nil, err // cancelled at a stage boundary: nothing to render
		}
		snap := snapshot.Build(p, epoch, cfg)
		slog.Info("snapshot built", "epoch", epoch, "digest", snap.Digest[:12],
			"countries", len(snap.CountryCodes()), "took", time.Since(start).Round(time.Millisecond))
		return snap, ctx.Err()
	}

	// Warm start: with -snapshot-dir, load the newest valid persisted
	// generation and serve it (marked stale) while the first real build
	// runs in the background. Cold start publishes nothing until the first
	// build lands, so main waits for it below before listening.
	var persist *snapshot.Persister
	store := snapshot.NewStore(nil)
	if o.snapshotDir != "" {
		var err error
		persist, err = snapshot.NewPersister(o.snapshotDir, o.snapshotKeep)
		if err != nil {
			slog.Error("snapshot dir unusable", "dir", o.snapshotDir, "err", err)
			os.Exit(1)
		}
		warm, skipped, err := persist.LoadLatest()
		if err != nil {
			slog.Error("snapshot dir unreadable", "dir", o.snapshotDir, "err", err)
			os.Exit(1)
		}
		if skipped > 0 {
			slog.Warn("rejected corrupt snapshot generations at warm start", "dir", o.snapshotDir, "skipped", skipped)
		}
		if warm != nil {
			store = snapshot.NewStore(warm)
			slog.Info("warm start: serving persisted snapshot while rebuilding",
				"epoch", warm.Epoch, "digest", warm.Digest[:12],
				"age", time.Since(warm.SavedAt).Round(time.Second))
		}
	}
	warmStarted := store.Load() != nil

	// firstPub closes once the supervisor publishes its first snapshot —
	// the cold-start listen gate and the manifest trigger.
	firstPub := make(chan struct{})
	var firstPubClosed bool
	store.SetHistoryLimit(o.history)
	sup := snapshot.NewSupervisor(store, snapshot.SupervisorConfig{
		Build:         build,
		BuildTimeout:  o.buildTimeout,
		AllowDegraded: o.allowDegraded,
		DriftGate:     o.driftGate,
		StaleAfter:    o.staleAfter,
		Persist:       persist,
		Seed:          o.world.Seed,
		OnPublish: func(s *snapshot.Snapshot) {
			if !firstPubClosed { // supervisor goroutine only; no race
				firstPubClosed = true
				close(firstPub)
			}
		},
	})
	ofl.Ready = sup.Ready
	ofl.History = func() any { return store.HistoryData() }

	// Handlers go in before the first build starts: a daemon signalled
	// during its cold start must drain like any other, not die by signal.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sup.Trigger("boot")

	// Assemble the serving instrumentation from the observability flags.
	ins := snapshot.Instrumentation{SlowProbe: o.slowProbe, MaxInFlight: o.maxInflight}
	if o.accessLog != "" {
		out := os.Stderr
		if o.accessLog != "-" {
			// Append, never truncate: restarts are a designed-for event and
			// the previous process's log is evidence, not garbage.
			f, err := os.OpenFile(o.accessLog, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				slog.Error("access log open failed", "path", o.accessLog, "err", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		ins.Log = obs.NewAccessLog(
			slog.New(slog.NewJSONHandler(out, nil)),
			obs.AccessLogConfig{SampleOK: o.accessSample, SlowAfter: o.accessSlow},
		).Start()
		defer ins.Log.Close()
	}
	if o.traceSample > 0 {
		ins.Requests = obs.NewReqTracker(o.world.Seed, o.traceSample, 64, 8)
		ofl.Requests = ins.Requests
		ofl.Manifest.SetNote("trace_sample", strconv.FormatFloat(o.traceSample, 'g', -1, 64))
	}
	if o.slo != "" {
		cfg, err := obs.ParseSLO(o.slo)
		if err != nil {
			slog.Error("bad -slo", "spec", o.slo, "err", err)
			os.Exit(1)
		}
		ofl.SLO = obs.NewSLO(cfg)
		ins.SLO = ofl.SLO
		ofl.Manifest.SetNote("slo_config", cfg.String())
	}
	// Every source the debug surface reads now exists, so -debug-addr may
	// start answering: during a cold start its /readyz says "not ready: no
	// snapshot published" until the first build lands.
	debug := ofl.Serve()

	// Cold start has nothing to serve yet: wait for the first publish so
	// the first accepted connection always gets data. Warm start serves the
	// persisted snapshot immediately and lets the rebuild land whenever it
	// lands.
	if !warmStarted {
		select {
		case <-firstPub:
		case sig := <-stop:
			slog.Info("shutting down during cold start", "signal", sig.String())
			sup.Close() // cancels the build in flight
			ofl.Done()
			return
		}
	}
	first := store.Load()

	h := snapshot.NewHandler(store)
	h.Instrument(ins)

	mux := http.NewServeMux()
	mux.Handle("/v1/", h)
	mux.Handle("/", debug)
	srv := newServer(mux)
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		slog.Error("listen failed", "addr", o.addr, "err", err)
		// os.Exit skips defers: flush the access log explicitly so the
		// startup events (including a warm-start marker) are not lost.
		if ins.Log != nil {
			ins.Log.Close()
		}
		sup.Close()
		os.Exit(1)
	}
	slog.Info("rankd serving", "addr", ln.Addr().String(),
		"epoch", first.Epoch, "stale", first.Stale)

	// The manifest is written now — at publish, not at exit — so anything
	// scraping the daemon can pair responses with the digest that produced
	// them. The serving config rides along as notes.
	ofl.Manifest.SetNote("serving_addr", ln.Addr().String())
	ofl.Manifest.SetNote("snapshot_digest", first.Digest)
	ofl.Manifest.SetNote("snapshot_epoch", strconv.FormatInt(first.Epoch, 10))
	ofl.Manifest.SetNote("snapshot_stale", strconv.FormatBool(first.Stale))
	ofl.Manifest.SetNote("max_top_n", strconv.Itoa(first.MaxTopN()))
	ofl.WriteManifest()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var tick <-chan time.Time
	if o.refresh > 0 {
		t := time.NewTicker(o.refresh)
		defer t.Stop()
		tick = t.C
	}

	// finish records the final SLO burn state and the last rollover's drift
	// summary into the manifest (Done rewrites it when -manifest was given)
	// before the shared teardown.
	finish := func() {
		if d := sup.LastDrift(); d != nil {
			ofl.Manifest.SetNote("drift_summary", d.Summary())
			ofl.Manifest.SetNote("drift_churn_score", strconv.FormatFloat(d.MaxChurn, 'g', -1, 64))
			ofl.Manifest.SetNote("drift_max_rank_delta", strconv.Itoa(d.MaxRankDelta))
			ofl.Manifest.SetNote("drift_epochs",
				strconv.FormatInt(d.OldEpoch, 10)+"->"+strconv.FormatInt(d.NewEpoch, 10))
		}
		if slo := ofl.SLO; slo != nil {
			availFast, availSlow, latFast, latSlow := slo.Burns()
			reason, degraded := slo.Degraded()
			ofl.Manifest.SetNote("slo_availability_fast_burn", strconv.FormatFloat(availFast, 'g', 4, 64))
			ofl.Manifest.SetNote("slo_availability_slow_burn", strconv.FormatFloat(availSlow, 'g', 4, 64))
			ofl.Manifest.SetNote("slo_latency_fast_burn", strconv.FormatFloat(latFast, 'g', 4, 64))
			ofl.Manifest.SetNote("slo_latency_slow_burn", strconv.FormatFloat(latSlow, 'g', 4, 64))
			ofl.Manifest.SetNote("slo_degraded", strconv.FormatBool(degraded))
			if degraded {
				ofl.Manifest.SetNote("slo_degraded_reason", reason)
			}
		}
		ofl.Done()
	}

	for {
		select {
		case <-hup:
			sup.Trigger("SIGHUP") // coalesces if a build is already running
		case <-tick:
			sup.Trigger("refresh interval")
		case sig := <-stop:
			slog.Info("shutting down", "signal", sig.String())
			// Cancel any in-flight build first — shutdown must not wait for
			// a slow rebuild — then drain the listener.
			sup.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := srv.Shutdown(ctx); err != nil {
				slog.Warn("shutdown incomplete", "err", err)
			}
			cancel()
			finish()
			return
		case err := <-serveErr:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				slog.Error("serve failed", "err", err)
				sup.Close()
				if ins.Log != nil {
					ins.Log.Close()
				}
				os.Exit(1)
			}
			sup.Close()
			finish()
			return
		}
	}
}

// newServer is the daemon's listener: the repository's shared request limits
// plus a write bound, so a client that stops reading its response is dropped
// too. The debug mux is mounted on this listener as well, so the bound stays
// above the 30 s /debug/pprof/profile streams by default (pprof refuses a
// profile that would outlast it).
func newServer(h http.Handler) *http.Server {
	srv := obs.NewServer(h)
	srv.WriteTimeout = time.Minute
	return srv
}
