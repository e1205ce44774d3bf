package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"

	"countryrank/internal/asn"
	"countryrank/internal/cone"
	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/experiments"
	"countryrank/internal/geoloc"
	"countryrank/internal/hegemony"
	"countryrank/internal/rank"
	"countryrank/internal/routing"
	"countryrank/internal/sanitize"
	"countryrank/internal/snapshot"
	"countryrank/internal/topology"
)

// The traced run is a replica: it calls each layer's public functions in
// the order rankd's build closure, crank and experiments call them, from
// this process, with a span around each call. That is the whole internal/
// import surface the benchmark depends on (the imports above). It adds no
// span, counter or hook inside internal/ or cmd/. Oracles tie the replica
// to what was measured: the snapshot digest it builds for a seed must be
// the one the rankd child served for that seed, and the text it renders
// must be what the crank and experiments children printed.

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finishTrace turns the recorded spans into per-layer metrics — one sample
// per pass for every timed layer — derives the ratios that need two of
// them, states the recorder's own cost, and writes the Chrome trace.
func (b *bench) finishTrace() {
	for _, name := range timedLayers {
		for _, t := range b.rec.perPass(name) {
			b.add(name+"_ms", ms(t.d))
			b.add(name+"_allocs", float64(t.mallocs))
		}
	}
	if size := median(b.samples["routing.mrt_bytes"]) / (1 << 20); size > 0 {
		b.add("routing.mrt_export_mb_per_s", size/(median(b.samples["routing.mrt_export_ms"])/1e3))
		b.add("routing.mrt_import_mb_per_s", size/(median(b.samples["routing.mrt_import_ms"])/1e3))
	}
	// What an epoch costs seen from outside, less what the replica's epoch
	// span accounts for: supervisor, signal delivery, the 10 ms poll, and
	// whatever the child's heap and scheduler add.
	if outside := median(b.samples["rankd.epoch_ms"]); outside > 0 {
		var inside []float64
		for _, t := range b.rec.perPass("epoch") {
			inside = append(inside, ms(t.d))
		}
		if len(inside) > 0 {
			b.add("rankd.epoch_unattributed_pct", 100*(outside-median(inside))/outside)
		}
	}
	var traced time.Duration
	for _, s := range b.rec.spans {
		if s.Parent == -1 {
			traced += s.End - s.Start
		}
	}
	if traced > 0 {
		cost := spanCost() * time.Duration(len(b.rec.spans))
		b.add("trace.overhead_pct", 100*float64(cost)/float64(traced))
	}
	path := filepath.Join(".bench_build", "trace-"+b.wl.Name+".json")
	f, err := os.Create(path)
	if err == nil {
		err = b.rec.writeChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if b.op(err) {
		fmt.Fprintf(b.out, "# chrome trace: %s (%d spans)\n", path, len(b.rec.spans))
	}
}

func (b *bench) coreOptions(seed int64) core.Options {
	return core.Options{Seed: seed, StubScale: b.w.scale, VPScale: b.w.vpscale}
}

// buildWorld is the first two stages every pipeline starts with.
func (b *bench) buildWorld(seed int64) (w *topology.World, col *routing.Collection) {
	b.rec.do("topology.build", func() {
		w = topology.Build(topology.Config{Seed: seed, StubScale: b.w.scale, VPScale: b.w.vpscale})
	})
	b.rec.do("routing.propagate", func() { col = routing.BuildCollection(w, routing.BuildOptions{}) })
	b.add("routing.records", float64(col.NumRecords()))
	if len(b.samples["routing.records"]) == 1 { // later passes rebuild the same world, or the next seed's
		fmt.Fprintf(b.out, "# sizes (replica): ases=%d vps=%d records=%d collectors=%d\n",
			w.Graph.NumASes(), w.VPs.Len(), col.NumRecords(), len(w.VPs.Collectors()))
	}
	b.checkRecords(col.NumRecords())
	return w, col
}

// traceRollover replays what one rankd epoch does — build closure, then
// the supervisor's diff, publish and persist — for the first two epochs'
// seeds, and breaks the kernels out per country on a second pipeline. A
// rankd child runs first so its served digests and its epoch time can be
// compared with the replica's.
func traceRollover(b *bench) error {
	d, err := b.setUp(true, "rankd")
	if err != nil {
		return err
	}
	b.add("rankd.cold_start_ms", d.startMS)
	served := map[int64]string{d.first.Epoch: d.first.Digest}
	cur := d.first
	for range 3 {
		cpu0, _ := d.cpuSeconds()
		next, wall, err := d.rollover(cur.Epoch)
		cpu1, _ := d.cpuSeconds()
		if !b.op(err) {
			break
		}
		b.add("rankd.epoch_ms", ms(wall))
		b.add("par.epoch_cores", (cpu1-cpu0)/wall.Seconds())
		served[next.Epoch] = next.Digest
		cur = next
	}
	b.checkDaemonWorld(d, cur)
	_, err = d.stop()
	b.op(err)
	// Warm restart on the generations the first process left behind: the
	// persisted snapshot must answer, marked stale, before any build; the
	// build it starts at boot must then replace it with the next epoch.
	warm, err := startRankd(b.bin, b.w, filepath.Join(b.dir, "snap"))
	if b.op(err) {
		b.add("rankd.warm_start_ms", warm.startMS)
		b.check(warm.first.Stale && warm.first.Digest == cur.Digest,
			"warm start served epoch %d stale=%v digest %.12s, want the persisted epoch %d digest %.12s marked stale",
			warm.first.Epoch, warm.first.Stale, warm.first.Digest, cur.Epoch, cur.Digest)
		next, _, err := warm.awaitEpoch(warm.first.Epoch)
		if b.op(err) {
			b.check(!next.Stale && next.Epoch == cur.Epoch+1, "after a warm start epoch %d stale=%v answered, want fresh epoch %d", next.Epoch, next.Stale, cur.Epoch+1)
		}
		_, err = warm.stop()
		b.op(err)
	}

	store := snapshot.NewStore(nil)
	store.SetHistoryLimit(snapshot.DefaultHistoryEpochs)
	persist, err := snapshot.NewPersister(filepath.Join(b.dir, "snap-traced"), snapshot.DefaultKeepGenerations)
	if err != nil {
		return err
	}
	for epoch := int64(1); epoch <= 2; epoch++ {
		snap := b.tracedEpoch(epoch, store, persist)
		b.check(snap.Digest == served[epoch], "epoch %d: the traced replica built digest %.12s, rankd served %.12s", epoch, snap.Digest, served[epoch])
		b.digest = digestOf([]byte(b.digest), []byte(snap.Digest))
	}
	return nil
}

// tracedEpoch is one pass: the epoch replica, the persist that follows the
// publish, and the per-layer detail. The "epoch" span covers what rankd
// runs between SIGHUP and the new epoch answering.
func (b *bench) tracedEpoch(epoch int64, store *snapshot.Store, persist *snapshot.Persister) (snap *snapshot.Snapshot) {
	cfg := snapshot.Config{MaxTopN: snapshot.DefaultMaxTopN}
	opt := b.coreOptions(b.w.seed + epoch - 1) // rankd -seed-step 1
	b.rec.do("pass", func() {
		var w *topology.World
		var col *routing.Collection
		b.rec.do("epoch", func() {
			w, col = b.buildWorld(opt.Seed)
			var p *core.Pipeline
			b.rec.do("core.process", func() { p = core.NewPipelineFrom(w, col, opt) })
			b.rec.do("snapshot.build", func() { snap = snapshot.Build(p, epoch, cfg) })
			var drift *snapshot.Drift
			b.rec.do("snapshot.diff", func() { drift = snapshot.Diff(store.Load(), snap) })
			b.rec.do("snapshot.publish", func() { store.Publish(snap, drift) })
		})
		var path string
		var err error
		b.rec.do("snapshot.persist_save", func() { path, err = persist.Save(snap) })
		if b.op(err) {
			if info, err := os.Stat(path); b.op(err) {
				b.add("snapshot.persist_bytes", float64(info.Size()))
			}
		}
		var loaded *snapshot.Snapshot
		b.rec.do("snapshot.persist_load", func() { loaded, _, err = persist.LoadLatest() })
		if b.op(err) {
			b.check(loaded != nil && loaded.Digest == snap.Digest, "the persisted generation does not load back to digest %.12s", snap.Digest)
		}
		b.rec.do("detail", func() { b.tracedDetail(w, col, opt, snap, cfg) })
	})
	bodies := len(snap.IndexBody())
	for _, cc := range snap.CountryCodes() {
		bodies += len(snap.CountryBody(cc))
	}
	b.add("snapshot.body_bytes", float64(bodies)) // country pages + index; top variants have no public accessor
	b.checkCountries(len(snap.CountryCodes()))
	return snap
}

// tracedDetail calls directly what core.NewPipelineFrom and snapshot.Build
// ran inside: the stages of process, then per country the two views, the
// two kernels on each and the four rankings, one after another (rankd fans
// them out; the sum here is CPU-like, not wall). It uses a pipeline of its
// own, because the epoch's pipeline has every view cached by now.
func (b *bench) tracedDetail(w *topology.World, col *routing.Collection, opt core.Options, built *snapshot.Snapshot, cfg snapshot.Config) {
	var p *core.Pipeline
	b.rec.do("detail.pipeline", func() { p = core.NewPipelineFrom(w, col, opt) })
	b.rec.do("geoloc.geolocate", func() { geoloc.GeolocatePrefixes(w.Geo, col.AnnouncedPrefixes(), p.Opt.Threshold) })
	clique := map[asn.ASN]bool{}
	for _, a := range w.Clique {
		clique[a] = true
	}
	b.rec.do("sanitize.run", func() {
		sanitize.Run(col, sanitize.Config{Clique: clique, Registry: w.Graph.Registry(), RouteServers: w.Graph.RouteServers(), GeoTable: p.Geo})
	})
	b.add("sanitize.accept_ratio", float64(p.DS.Len())/float64(col.NumRecords()))
	var starts []int32
	b.rec.do("cone.starts", func() { starts = cone.Starts(p.DS, p.Rels) })

	info := p.Info()
	for _, cc := range built.CountryCodes() {
		c := countries.Code(cc)
		for _, kind := range []core.ViewKind{core.International, core.National} {
			var recs []int32
			var cs cone.Scores
			var hs hegemony.Scores
			b.rec.do("core.views", func() { recs = p.ViewRecords(kind, c) })
			b.rec.do("cone.compute", func() { cs = cone.ComputeFrom(p.DS, recs, p.Rels, starts) })
			b.rec.do("hegemony.compute", func() { hs = hegemony.Compute(p.DS, recs, p.Opt.Trim) })
			b.rec.do("rank.new", func() {
				rank.New("CC "+cc, cs.Shares(), info, true)
				rank.New("AH "+cc, hs.Hegemony, info, true)
			})
		}
	}
	data := snapshot.Data{Epoch: built.Epoch}
	for _, cc := range built.CountryCodes() {
		c := countries.Code(cc)
		var cr *core.CountryRankings
		b.rec.do("core.country", func() { cr = p.Country(c) })
		data.Countries = append(data.Countries, snapshot.CountryData{
			Code: c, Name: countries.Name(c), CCI: cr.CCI, CCN: cr.CCN, AHI: cr.AHI, AHN: cr.AHN,
		})
	}
	b.rec.do("core.global", func() {
		ccg, ahg := p.Global()
		data.Tops = []snapshot.TopData{{Metric: "ccg", Ranking: ccg}, {Metric: "ahg", Ranking: ahg}}
	})
	var assembled *snapshot.Snapshot
	b.rec.do("snapshot.assemble", func() { assembled = snapshot.Assemble(data, cfg) })
	b.check(assembled.Digest == built.Digest, "Assemble over direct Country calls gives digest %.12s, Build gave %.12s", assembled.Digest, built.Digest)
}

// traceIngest replays topogen's export loop and crank's import, process
// and case-study rankings, until the time is up. The children run once, so
// the text the replica renders can be compared with what crank printed.
func traceIngest(b *bench) error {
	if _, err := b.setUp(false, "topogen", "crank"); err != nil {
		return err
	}
	mrt := filepath.Join(b.dir, "mrt")
	gen, err := runChild(filepath.Join(b.bin, "topogen"), append(b.w.args(), "-out", mrt)...)
	if !b.op(err) {
		return nil
	}
	b.checkTopogen(gen.stdout, mrt)
	imp, err := runChild(filepath.Join(b.bin, "crank"), append(append(b.w.args(), "-mrt", mrt), caseStudies...)...)
	if !b.op(err) {
		return nil
	}
	b.digest = digestOf(imp.stdout)

	dir := filepath.Join(b.dir, "mrt-traced")
	for start := time.Now(); time.Since(start) < b.seconds; {
		var text bytes.Buffer
		b.rec.do("pass", func() {
			w, col := b.buildWorld(b.w.seed)
			var paths []string
			var size int64
			var err error
			b.rec.do("routing.mrt_export", func() { paths, size, err = exportAll(dir, w, col) })
			if !b.op(err) {
				return
			}
			b.checkMRTBytes(size)
			var imported *routing.Collection
			b.rec.do("routing.mrt_import", func() { imported, _, err = routing.ImportMRTFiles(w, paths, routing.ImportOptions{}) })
			if !b.op(err) {
				return
			}
			b.add("routing.mrt_bytes", float64(size))
			var p *core.Pipeline
			b.rec.do("core.process", func() { p = core.NewPipelineFrom(w, imported, core.Options{Seed: b.w.seed}) })
			b.add("sanitize.accept_ratio", float64(p.DS.Len())/float64(imported.NumRecords()))
			for _, cc := range caseStudies {
				c := countries.Code(cc)
				var cr *core.CountryRankings
				b.rec.do("core.country", func() { cr = p.Country(c) })
				fmt.Fprintf(&text, "== %s (%s)\n", c, countries.Name(c))
				for _, r := range []*rank.Ranking{cr.CCI, cr.AHI, cr.CCN, cr.AHN} {
					text.WriteString(r.Render(10)) // crank's default -top
				}
			}
		})
		b.check(bytes.Equal(text.Bytes(), imp.stdout), "the traced replica's rankings differ from what crank printed")
	}
	return nil
}

// exportAll is topogen's export loop: one TABLE_DUMP_V2 file per collector.
func exportAll(dir string, w *topology.World, col *routing.Collection) (paths []string, size int64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	for _, c := range w.VPs.Collectors() {
		path := filepath.Join(dir, c.Name+".mrt")
		f, err := os.Create(path)
		if err != nil {
			return nil, 0, err
		}
		err = routing.ExportMRT(f, col, c.Name, 1617235200)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, err
		}
		paths = append(paths, path)
	}
	size, _ = dirSize(dir)
	return paths, size, nil
}

// traceStability replays experiments -only figure4,figure5 once and
// compares the rendered figures with the child's stdout.
func traceStability(b *bench) error {
	if _, err := b.setUp(false, "experiments"); err != nil {
		return err
	}
	args := append(b.w.args(), "-only", "figure4,figure5", "-trials", strconv.Itoa(stabilityTrials))
	run, err := runChild(filepath.Join(b.bin, "experiments"), args...)
	if !b.op(err) {
		return nil
	}
	b.checkNDCG(run.stdout)
	b.checkPipelineLog(run.stderr)
	b.digest = digestOf(run.stdout)

	var text bytes.Buffer
	b.rec.do("pass", func() {
		w, col := b.buildWorld(b.w.seed)
		var p *core.Pipeline
		b.rec.do("core.process", func() { p = core.NewPipelineFrom(w, col, b.coreOptions(b.w.seed)) })
		var f4 experiments.Figure4
		var f5 experiments.Figure5
		b.rec.do("experiments.figure4", func() { f4 = experiments.RunFigure4(p, stabilityTrials, b.w.seed+100) })
		b.rec.do("experiments.figure5", func() { f5 = experiments.RunFigure5(p, stabilityTrials, b.w.seed+200) })
		fmt.Fprintf(&text, "\n================ Figure 4\n%s\n================ Figure 5\n%s", f4.Render(), f5.Render())
		trials := 0
		for _, curve := range slices.Concat(f4.AHN, f4.CCN, f5.AHI, f5.CCI) {
			for _, pt := range curve.Points {
				trials += pt.Trials
			}
		}
		d4, _ := b.rec.total("experiments.figure4")
		d5, _ := b.rec.total("experiments.figure5")
		b.add("core.stability_trials_per_s", float64(trials)/(d4+d5).Seconds())
	})
	b.check(bytes.Equal(text.Bytes(), run.stdout), "the traced replica's figures differ from what experiments printed")
	return nil
}

// traceServe runs the serving workload's client with every request timed,
// reads the daemon's and its own CPU beside it, and — for serve_steady —
// compares rankd with a fixed-body net/http server under the same client
// and times the handler alone.
func traceServe(b *bench) error {
	roll := b.wl.Name == "serve_rollover"
	d, err := b.setUp(true, "rankd")
	if err != nil {
		return err
	}
	defer func() {
		_, err := d.stop()
		b.op(err)
	}()
	b.add("rankd.cold_start_ms", d.startMS)
	b.digest = digestOf([]byte(d.first.Digest))
	base := &load{base: d.base, ccs: d.first.Countries, tops: d.first.Tops}
	b.drive(base, serveWarmup, false)

	l := &load{base: d.base, ccs: base.ccs, tops: base.tops}
	l.epoch.Store(d.first.Epoch)
	stopRolling := make(chan struct{})
	rolled := make(chan rolling, 1)
	go func() {
		r := rollEpochs(d, l, roll, stopRolling)
		l.stop.Store(true)
		rolled <- r
	}()
	cpu0, _ := d.cpuSeconds()
	c0, err0 := d.counters()
	self0 := selfCPU()
	time.AfterFunc(b.seconds, func() { close(stopRolling) })
	start := time.Now()
	l.run(b.w.seed, b.conns, true)
	wall := time.Since(start)
	self1 := selfCPU()
	c1, err1 := d.counters()
	cpu1, _ := d.cpuSeconds()
	b.op(err0)
	b.op(err1)
	r := <-rolled
	for i, err := range r.errs {
		if b.op(err) {
			b.add("rankd.epoch_ms", r.ms[i])
		}
	}
	b.absorb(l)
	if last, err := d.meta(); b.op(err) {
		b.checkDaemonWorld(d, last)
	}

	n := float64(l.done.Load())
	if n == 0 {
		return fmt.Errorf("no request completed in %s", wall)
	}
	b.add("rankd.cpu_us_per_req", (cpu1-cpu0)*1e6/n)
	b.add("rankd.allocs_per_req", float64(c1.mallocs-c0.mallocs)/n)
	b.add("client.cpu_us_per_req", (self1-self0).Seconds()*1e6/n)
	b.add("client.status_304_ratio", float64(l.notModified.Load())/n)
	b.add("http.rankd_rps", n/wall.Seconds())
	slices.Sort(l.lat)
	fmt.Fprintf(b.out, "# %d timed requests\n", len(l.lat))
	for name, q := range map[string]float64{"client.p50_us": 0.50, "client.p99_us": 0.99, "client.p999_us": 0.999} {
		if v, ok := percentile(l.lat, q); ok {
			b.add(name, float64(v)/1e3)
		} else {
			fmt.Fprintf(b.out, "# %s not reported: fewer than ten samples beyond it\n", name)
		}
	}
	// Spans of the client's side: one per request would be a million
	// spans, so the trace carries the run as one span and the percentiles
	// above carry the distribution.
	b.rec.spans = append(b.rec.spans, span{Name: "client.load", Parent: -1, Workload: b.wl.Name,
		Start: start.Sub(b.rec.origin), End: start.Add(wall).Sub(b.rec.origin)})

	if !roll {
		if bodyBytes := b.traceHandler(filepath.Join(b.dir, "snap"), base); bodyBytes > 0 {
			b.compareNull(d, base, bodyBytes)
		}
	}
	return nil
}

// drive runs l's client for d and folds its counts into b.
func (b *bench) drive(l *load, d time.Duration, record bool) (rps float64) {
	time.AfterFunc(d, func() { l.stop.Store(true) })
	start := time.Now()
	l.run(b.w.seed, b.conns, record)
	rps = float64(l.done.Load()) / time.Since(start).Seconds()
	b.absorb(l)
	return rps
}

func (b *bench) absorb(l *load) {
	b.attempted += int(l.done.Load() + l.failed.Load())
	b.failed += int(l.failed.Load())
	b.failures = append(b.failures, l.failures...)
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traceHandler times Handler.ServeHTTP alone, into a writer that discards,
// over the client's mix, on the generation the daemon persisted. It
// returns the mean size of a country page, the body most requests fetch.
func (b *bench) traceHandler(snapDir string, l *load) (bodyBytes int) {
	persist, err := snapshot.NewPersister(snapDir, snapshot.DefaultKeepGenerations)
	if !b.op(err) {
		return 0
	}
	snap, _, err := persist.LoadLatest()
	if !b.op(err) {
		return 0
	}
	if b.check(snap != nil, "no persisted generation in %s", snapDir); snap == nil {
		return 0
	}
	for _, cc := range l.ccs {
		bodyBytes += len(snap.CountryBody(cc))
	}
	bodyBytes /= len(l.ccs)
	h := snapshot.NewHandler(snapshot.NewStore(snap))
	var reqs []*http.Request
	for _, cc := range l.ccs {
		reqs = append(reqs, httptest.NewRequest(http.MethodGet, "/v1/countries/"+cc, nil))
	}
	for _, m := range l.tops {
		for n := 1; n <= maxTopN; n++ {
			reqs = append(reqs, httptest.NewRequest(http.MethodGet, "/v1/top/"+m+"?n="+strconv.Itoa(n), nil))
		}
	}
	reqs = append(reqs, httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil))
	const rounds = 2000
	w := &discardWriter{h: http.Header{}}
	b.rec.do("snapshot.handler", func() {
		for range rounds {
			for _, r := range reqs {
				w.status = 0
				h.ServeHTTP(w, r)
				if w.status != 0 && w.status != http.StatusOK {
					b.op(fmt.Errorf("handler answered %s with %d", r.URL, w.status))
					return
				}
			}
		}
	})
	d, mallocs := b.rec.total("snapshot.handler")
	n := float64(rounds * len(reqs))
	b.add("snapshot.handler_ns_per_req", float64(d.Nanoseconds())/n)
	b.add("snapshot.handler_allocs_per_req", float64(mallocs)/n)
	return bodyBytes
}

type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// compareNull alternates the client between rankd and a fixed-body
// net/http server (this binary re-executed), two short turns each, so host
// drift lands on both. A ratio near 1 says serve throughput is bounded by
// net/http, loopback and the client, not by rankd's handler.
func (b *bench) compareNull(d *rankd, l *load, bodyBytes int) {
	null, err := startNullServer(bodyBytes)
	if !b.op(err) {
		return
	}
	defer null.stop()
	const turn = 1500 * time.Millisecond
	var rankdRPS, nullRPS []float64
	for range 2 {
		rankdRPS = append(rankdRPS, b.drive(&load{base: d.base, ccs: l.ccs, tops: l.tops}, turn, false))
		nullRPS = append(nullRPS, b.drive(&load{base: null.base, ccs: l.ccs, tops: l.tops}, turn, false))
	}
	b.add("http.null_rps", median(nullRPS))
	b.add("http.rankd_over_null", median(rankdRPS)/median(nullRPS))
}
