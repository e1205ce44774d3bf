package obs

import (
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"
)

// CmdFlags is the observability flag set every cmd shares: structured-log
// verbosity, the opt-in debug server, and the run's export artifacts — a
// Chrome trace (-trace-out) and a provenance manifest (-manifest). Through
// its Sources, main also hands the debug surface what it serves.
type CmdFlags struct {
	cmd         string
	fs          *flag.FlagSet
	Verbosity   *int
	DebugAddr   *string
	TraceOut    *string
	ManifestOut *string

	// Manifest is the run's provenance record, created by Init. Cmds
	// enrich it (Seed, AddInput, SetCoverage, SetDrops) as the run learns
	// its inputs; Done finalizes and writes it when -manifest was given.
	Manifest *RunManifest

	Sources

	start     time.Time
	boundAddr string
	shutdown  func()
}

// Sources are what the debug surface serves beyond the Default registry
// and the DefaultTrace; NewDebugMux says which endpoint reads which. Each
// is nil in a cmd that has none. main sets them between Setup and Serve;
// NewDebugMux copies them, so nothing set later is seen.
type Sources struct {
	Ready   func() (detail string, ready bool)
	History func() any // returns the /debug/history document
	SLO     *SLO
}

// FlagsOn registers the shared observability flags on fs. Call before
// fs.Parse, then Init after it.
func FlagsOn(fs *flag.FlagSet, cmd string) *CmdFlags {
	return &CmdFlags{
		cmd:       cmd,
		fs:        fs,
		Verbosity: fs.Int("v", 0, "log verbosity: 0 info, 1 debug stage logs"),
		DebugAddr: fs.String("debug-addr", "", "serve /metrics, /healthz, expvar, pprof and /debug/trace on this host:port"),
		TraceOut:  fs.String("trace-out", "", "write the run's stage spans as Chrome trace-event JSON (Perfetto-loadable) to this path"),
		ManifestOut: fs.String("manifest", "",
			"write a run provenance manifest (flags, seeds, input digests, coverage, drops, metrics, span tree) as JSON to this path"),
	}
}

// Init is Setup then Serve: everything a cmd with no Sources of its own
// needs. Call right after flag.Parse.
func (f *CmdFlags) Init() {
	f.Setup()
	f.Serve()
}

// Setup installs the slog default logger at the requested verbosity and
// starts the provenance manifest. It opens no listener.
func (f *CmdFlags) Setup() {
	f.start = time.Now()
	level := slog.LevelInfo
	if *f.Verbosity >= 1 {
		level = slog.LevelDebug
	}
	h := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	slog.SetDefault(slog.New(h).With("cmd", f.cmd))
	EnableRuntimeMetrics()
	f.Manifest = NewRunManifest(f.cmd, f.fs)
}

// Serve builds the debug surface over the Sources set on f and, when
// -debug-addr was given, starts serving it there. The listener is opened
// here, by the call that has the sources, so it can never answer before
// them: a daemon's /readyz says "not ready" from its first response, not
// "ok" until a probe is installed. The mux is returned for a daemon that
// also mounts the surface on its own listener.
func (f *CmdFlags) Serve() *http.ServeMux {
	mux := NewDebugMux(f)
	if *f.DebugAddr != "" {
		ln, err := net.Listen("tcp", *f.DebugAddr) // port 0 picks a free one
		if err != nil {
			slog.Error("debug server failed", "addr", *f.DebugAddr, "err", err)
			os.Exit(1)
		}
		srv := NewServer(mux)
		go func() { _ = srv.Serve(ln) }()
		f.boundAddr = ln.Addr().String()
		f.shutdown = func() { _ = srv.Close() } // also releases the listener
		slog.Info("debug server listening", "addr", f.boundAddr)
	}
	return mux
}

// Done finishes the run's observability: it writes the -trace-out and
// -manifest artifacts and shuts the debug server down. Call it at the end
// of main, after the run's output.
func (f *CmdFlags) Done() {
	if *f.TraceOut != "" {
		export("trace", *f.TraceOut, DefaultTrace.WriteChromeTrace)
	}
	f.WriteManifest()
	if f.shutdown != nil {
		f.shutdown()
		f.shutdown = nil
	}
}

// WriteManifest stamps the manifest with the run so far (wall time, metric
// snapshot, span tree) and writes it when -manifest was given. Done calls
// it; a daemon also calls it once it is serving, so a scrape can be paired
// with the manifest while the process is still running.
func (f *CmdFlags) WriteManifest() {
	if *f.ManifestOut == "" || f.Manifest == nil {
		return
	}
	f.Manifest.Finish(time.Since(f.start), Default.Snapshot(), DefaultTrace.Render())
	export("manifest", *f.ManifestOut, f.Manifest.WriteJSON)
}

// export writes one of the run's artifacts to path and logs the outcome; a
// failed export does not fail the run that produced the results.
func export(what, path string, write func(io.Writer) error) {
	file, err := os.Create(path)
	if err == nil {
		err = write(file)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		slog.Error(what+" export failed", "path", path, "err", err)
		return
	}
	slog.Info(what+" written", "path", path)
}
