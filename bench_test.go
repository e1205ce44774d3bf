// Benchmarks regenerating each of the paper's tables and figures, plus the
// ablation benches DESIGN.md calls out. Each benchmark measures the cost of
// recomputing its experiment on a shared, reduced-scale pipeline (building
// worlds inside the timed loop would only measure the generator).
package countryrank

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"countryrank/internal/snapshot"

	conepkg "countryrank/internal/cone"
	"countryrank/internal/core"
	ctipkg "countryrank/internal/cti"
	"countryrank/internal/experiments"
	"countryrank/internal/hegemony"
	"countryrank/internal/ihr"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

var (
	benchOnce sync.Once
	benchP21  *core.Pipeline
	benchP23  *core.Pipeline
)

func benchPipelines(b *testing.B) (*core.Pipeline, *core.Pipeline) {
	b.Helper()
	benchOnce.Do(func() {
		benchP21 = core.NewPipeline(core.Options{Seed: 1, StubScale: 0.4, VPScale: 0.5})
		benchP23 = core.NewPipeline(core.Options{
			Seed: 1, Scenario: topology.Mar2023, StubScale: 0.4, VPScale: 0.5,
		})
	})
	return benchP21, benchP23
}

// BenchmarkPipelineBuild measures the full Figure 6 pipeline: world
// generation, propagation, sanitization, geolocation.
func BenchmarkPipelineBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.NewPipeline(core.Options{Seed: int64(i + 1), StubScale: 0.15, VPScale: 0.2})
	}
}

// BenchmarkPropagation measures valley-free route propagation alone.
func BenchmarkPropagation(b *testing.B) {
	w := topology.Build(topology.Config{Seed: 1, StubScale: 0.3, VPScale: 0.3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routing.BuildCollection(w, routing.BuildOptions{})
	}
}

func BenchmarkTable1Sanitize(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable1(p)
	}
}

// BenchmarkConeStarts measures the chain rule over every collection path:
// the relationship lookups a pipeline pays once, before any view.
func BenchmarkConeStarts(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conepkg.Starts(p.DS, p.Rels)
	}
}

func BenchmarkTable2Views(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunTable2()
	}
}

func BenchmarkTable4VPCensus(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable4(p)
	}
}

func BenchmarkFigure4NationalStability(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFigure4(p, 1, int64(i))
	}
}

func BenchmarkFigure5InternationalStability(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFigure5(p, 1, int64(i))
	}
}

func BenchmarkTable5Australia(b *testing.B) {
	p, _ := benchPipelines(b)
	ccg, _ := p.Global()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunCaseStudy(p, "AU", 2, ccg)
	}
}

func BenchmarkTable6Japan(b *testing.B) {
	p, _ := benchPipelines(b)
	ccg, _ := p.Global()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunCaseStudy(p, "JP", 2, ccg)
	}
}

func BenchmarkTable7Russia(b *testing.B) {
	p, _ := benchPipelines(b)
	ccg, _ := p.Global()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunCaseStudy(p, "RU", 2, ccg)
	}
}

func BenchmarkTable8UnitedStates(b *testing.B) {
	p, _ := benchPipelines(b)
	ccg, _ := p.Global()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunCaseStudy(p, "US", 2, ccg)
	}
}

func BenchmarkTable9GlobalContrast(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable9(p, "AU")
	}
}

func BenchmarkTable10RussiaTemporal(b *testing.B) {
	p21, p23 := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTemporal(p21, p23, "RU")
	}
}

func BenchmarkTable11Taiwan(b *testing.B) {
	p21, p23 := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTemporal(p21, p23, "TW")
	}
}

func BenchmarkTable12Continental(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable12(p)
	}
}

func BenchmarkFigure7SovietBloc(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFigure7(p)
	}
}

func BenchmarkFigure8ThresholdSweep(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFigure8(p)
	}
}

func BenchmarkFigure9FilteredLengths(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFigure9(p)
	}
}

func BenchmarkFigure10VPConcentration(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFigure10(p)
	}
}

func BenchmarkTable13_14FilterByCountry(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable13_14(p)
	}
}

// BenchmarkFigure2WorkedExample measures the hegemony kernel on the
// worked-example scale (unit tests verify its exact values).
func BenchmarkFigure2WorkedExample(b *testing.B) {
	p, _ := benchPipelines(b)
	recs := p.ViewRecords(core.International, "AU")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hegemony.Compute(p.DS, recs, -1)
	}
}

// --- Ablation benches (DESIGN.md) ---

// BenchmarkAblationTrim compares hegemony with 0%, 10% and 25% trimming.
func BenchmarkAblationTrim(b *testing.B) {
	p, _ := benchPipelines(b)
	recs := p.ViewRecords(core.International, "RU")
	for _, tc := range []struct {
		name string
		trim float64
	}{{"trim0", 0}, {"trim10", 0.10}, {"trim25", 0.25}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hegemony.Compute(p.DS, recs, tc.trim)
			}
		})
	}
}

// BenchmarkAblationRelationshipSource compares cone computation on ground
// truth vs inferred relationships.
func BenchmarkAblationRelationshipSource(b *testing.B) {
	p, _ := benchPipelines(b)
	recs := p.ViewRecords(core.International, "AU")
	b.Run("ground-truth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			conepkg.ComputeFrom(p.DS, recs, p.Rels, nil)
		}
	})
	var inferred *core.Pipeline
	b.Run("inferred", func(b *testing.B) {
		if inferred == nil {
			b.StopTimer()
			opt := core.Options{Seed: 1, StubScale: 0.4, VPScale: 0.5, InferRelationships: true}
			inferred = core.NewPipeline(opt)
			b.StartTimer()
		}
		recs := inferred.ViewRecords(core.International, "AU")
		for i := 0; i < b.N; i++ {
			conepkg.ComputeFrom(inferred.DS, recs, inferred.Rels, nil)
		}
	})
}

// BenchmarkOutboundView measures the §7 extension's full cost.
func BenchmarkOutboundView(b *testing.B) {
	p, _ := benchPipelines(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Outbound("AU")
	}
}

// BenchmarkAblationBaselines compares the cost of the four country metrics
// against the AHC and CTI baselines for one country.
func BenchmarkAblationBaselines(b *testing.B) {
	p, _ := benchPipelines(b)
	b.Run("four-metrics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Country("JP")
		}
	})
	b.Run("ahc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ihr.Compute(p.DS, p.ASes, "JP", p.Opt.Trim)
		}
	})
	b.Run("cti", func(b *testing.B) {
		recs := p.ViewRecords(core.International, "JP")
		depths := ctipkg.Depths(p.DS, p.Rels) // once per pipeline, as Pipeline.CTI does
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctipkg.ComputeFrom(p.DS, recs, p.Rels, depths, p.Opt.Trim)
		}
	})
}

// --- MRT data-plane benches ---

var (
	mrtBenchOnce  sync.Once
	mrtBenchWorld *topology.World
	mrtBenchCol   *routing.Collection
	mrtBenchDumps [][]byte // one TABLE_DUMP_V2 stream per collector
	mrtBenchRecs  int      // records round-tripped per op
)

func mrtBenchSetup(b *testing.B) {
	b.Helper()
	mrtBenchOnce.Do(func() {
		mrtBenchWorld = topology.Build(topology.Config{Seed: 3, StubScale: 0.3, VPScale: 0.4})
		mrtBenchCol = routing.BuildCollection(mrtBenchWorld, routing.BuildOptions{
			LoopFrac: -1, PoisonFrac: -1, UnallocFrac: -1,
		})
		for _, coll := range mrtBenchWorld.VPs.Collectors() {
			var buf bytes.Buffer
			if err := routing.ExportMRT(&buf, mrtBenchCol, coll.Name, 1617235200); err != nil {
				panic(err)
			}
			mrtBenchDumps = append(mrtBenchDumps, buf.Bytes())
		}
		mrtBenchRecs = len(mrtBenchCol.Records)
	})
}

func mrtDumpBytes() int64 {
	var n int64
	for _, d := range mrtBenchDumps {
		n += int64(len(d))
	}
	return n
}

// BenchmarkMRTExport measures TABLE_DUMP_V2 serialization of the full
// collection (every collector), the write half of the MRT data plane.
func BenchmarkMRTExport(b *testing.B) {
	mrtBenchSetup(b)
	b.SetBytes(mrtDumpBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, coll := range mrtBenchWorld.VPs.Collectors() {
			if err := routing.ExportMRT(io.Discard, mrtBenchCol, coll.Name, 1617235200); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(mrtBenchRecs), "records/op")
}

// BenchmarkMRTImport measures parsing the per-collector dumps back into a
// Collection, the read half that feeds every downstream metric.
func BenchmarkMRTImport(b *testing.B) {
	mrtBenchSetup(b)
	b.SetBytes(mrtDumpBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := make([]io.Reader, len(mrtBenchDumps))
		for j, d := range mrtBenchDumps {
			streams[j] = bytes.NewReader(d)
		}
		if _, _, err := routing.ImportMRT(mrtBenchWorld, streams); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mrtBenchRecs), "records/op")
}

// BenchmarkMRTImportFiles measures the file importer: each dump is opened
// and decoded as one stream by the worker pool, the path crank -mrt takes.
func BenchmarkMRTImportFiles(b *testing.B) {
	mrtBenchSetup(b)
	dir := b.TempDir()
	paths := make([]string, len(mrtBenchDumps))
	for i, d := range mrtBenchDumps {
		paths[i] = filepath.Join(dir, fmt.Sprintf("dump-%02d.mrt", i))
		if err := os.WriteFile(paths[i], d, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(mrtDumpBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := routing.ImportMRTFiles(mrtBenchWorld, paths, routing.ImportOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mrtBenchRecs), "records/op")
}

// BenchmarkMRTRoundTrip measures export + import of a simulated collector
// dump set: the acceptance benchmark for the MRT data plane.
func BenchmarkMRTRoundTrip(b *testing.B) {
	mrtBenchSetup(b)
	b.SetBytes(mrtDumpBytes())
	b.ReportMetric(float64(mrtBenchRecs), "records/op")
	bufs := make([]bytes.Buffer, len(mrtBenchDumps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := make([]io.Reader, len(mrtBenchDumps))
		for j, coll := range mrtBenchWorld.VPs.Collectors() {
			bufs[j].Reset()
			if err := routing.ExportMRT(&bufs[j], mrtBenchCol, coll.Name, 1617235200); err != nil {
				b.Fatal(err)
			}
			streams[j] = &bufs[j]
		}
		if _, _, err := routing.ImportMRT(mrtBenchWorld, streams); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mrtBenchRecs), "records/op")
}

// --- Serving benches (cmd/rankd hot path) ---

var (
	serveBenchOnce sync.Once
	serveBenchSnap *snapshot.Snapshot
	serveBenchH    http.Handler
	serveBenchCC   string
)

func serveBenchSetup(b *testing.B) {
	b.Helper()
	serveBenchOnce.Do(func() {
		p, _ := benchPipelines(b)
		serveBenchSnap = snapshot.Build(p, 1, snapshot.Config{})
		serveBenchH = snapshot.NewHandler(snapshot.NewStore(serveBenchSnap))
		serveBenchCC = serveBenchSnap.CountryCodes()[0]
	})
}

// serveBenchWriter is the same minimal ResponseWriter the zero-alloc guard
// test uses: a reused header map and a discarding Write, so the benchmark
// measures the handler alone rather than httptest's recorder.
type serveBenchWriter struct {
	hdr http.Header
	n   int64
}

func (w *serveBenchWriter) Header() http.Header { return w.hdr }
func (w *serveBenchWriter) WriteHeader(int)     {}
func (w *serveBenchWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func serveBenchRequest(b *testing.B, path, inm string) *http.Request {
	b.Helper()
	u, err := url.Parse(path)
	if err != nil {
		b.Fatal(err)
	}
	req := &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	return req
}

// BenchmarkServeCountry measures the full-body country page hot path:
// resolve entity, assign precomputed headers, write stored bytes. The
// regression gate pins this at 0 allocs/op.
func BenchmarkServeCountry(b *testing.B) {
	serveBenchSetup(b)
	req := serveBenchRequest(b, "/v1/countries/"+serveBenchCC, "")
	w := &serveBenchWriter{hdr: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBenchH.ServeHTTP(w, req)
	}
	b.SetBytes(w.n / int64(b.N))
}

// BenchmarkServeCountry304 measures the revalidation path: ETag compare,
// 304, no body.
func BenchmarkServeCountry304(b *testing.B) {
	serveBenchSetup(b)
	w := &serveBenchWriter{hdr: http.Header{}}
	serveBenchH.ServeHTTP(w, serveBenchRequest(b, "/v1/countries/"+serveBenchCC, ""))
	req := serveBenchRequest(b, "/v1/countries/"+serveBenchCC, w.hdr.Get("ETag"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBenchH.ServeHTTP(w, req)
	}
}

// BenchmarkServeTop measures the top-N path including the manual query
// parse and variant clamp.
func BenchmarkServeTop(b *testing.B) {
	serveBenchSetup(b)
	req := serveBenchRequest(b, "/v1/top/ccg?n=10", "")
	w := &serveBenchWriter{hdr: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBenchH.ServeHTTP(w, req)
	}
}
