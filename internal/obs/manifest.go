package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// ManifestSchema versions the manifest JSON layout. Bump it on any
// field rename or semantic change; the golden test pins the rendering.
const ManifestSchema = 3

// RunEnv captures the toolchain and machine shape a run executed under.
type RunEnv struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// InputDigest identifies one input file by content: a ranking is only as
// reproducible as the bytes that fed it.
type InputDigest struct {
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// CoverageInfo is the manifest's view of core.Coverage (mirrored here so
// the leaf obs package needs no import of core). Degraded runs carry the
// same loss accounting their ranking labels do.
type CoverageInfo struct {
	VPsExpected  int   `json:"vps_expected"`
	VPsDelivered int   `json:"vps_delivered"`
	RecordsLost  int64 `json:"records_lost"`
	Degraded     bool  `json:"degraded"`
}

// DropStats is the manifest's view of sanitize.Stats: the Table-1
// accounting of why records were dropped before any metric saw them.
type DropStats struct {
	Total    int            `json:"total"`
	Accepted int            `json:"accepted"`
	Rejected int            `json:"rejected"`
	ByReason map[string]int `json:"by_reason,omitempty"`
}

// A RunManifest is the provenance record of one run: which binary, flags,
// seeds, inputs, coverage, and drop accounting produced a given output,
// plus the final metric snapshot and stage tree. Every cmd emits one
// behind -manifest; a ranking without its manifest is just an assertion.
type RunManifest struct {
	Schema        int               `json:"schema"`
	Cmd           string            `json:"cmd"`
	Started       string            `json:"started"`
	WallSeconds   float64           `json:"wall_seconds"`
	Args          []string          `json:"args"`
	Flags         map[string]string `json:"flags"`
	Seeds         map[string]int64  `json:"seeds,omitempty"`
	Env           RunEnv            `json:"env"`
	Inputs        []InputDigest     `json:"inputs,omitempty"`
	Coverage      *CoverageInfo     `json:"coverage,omitempty"`
	SanitizeDrops *DropStats        `json:"sanitize_drops,omitempty"`
	// Notes carries free-form provenance a cmd wants pinned to the run —
	// rankd records its serving config and the published snapshot digest
	// here, so a scraped ranking can be traced to the exact bytes served.
	Notes    map[string]string `json:"notes,omitempty"`
	Metrics  map[string]any    `json:"metrics"`
	SpanTree string            `json:"span_tree"`

	mu sync.Mutex
}

// NewRunManifest starts a manifest for cmd: command-line args, the full
// flag set (every flag with its effective value — call after fs.Parse),
// and the toolchain environment. Coverage, drops, seeds, and inputs are
// added by the run as it learns them; Finish stamps the rest.
func NewRunManifest(cmd string, fs *flag.FlagSet) *RunManifest {
	m := &RunManifest{
		Schema:  ManifestSchema,
		Cmd:     cmd,
		Started: time.Now().UTC().Format(time.RFC3339),
		Args:    append([]string{}, os.Args[1:]...),
		Flags:   map[string]string{},
		Env: RunEnv{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
		},
	}
	if fs != nil {
		fs.VisitAll(func(f *flag.Flag) {
			m.Flags[f.Name] = f.Value.String()
		})
	}
	return m
}

// Seed records one named seed (world, trials…) in the manifest.
func (m *RunManifest) Seed(name string, v int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Seeds == nil {
		m.Seeds = map[string]int64{}
	}
	m.Seeds[name] = v
}

// SetNote records one named free-form provenance note.
func (m *RunManifest) SetNote(name, value string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Notes == nil {
		m.Notes = map[string]string{}
	}
	m.Notes[name] = value
}

// AddInput appends one input file's digest (see HashFile) to the manifest's
// input list.
func (m *RunManifest) AddInput(d InputDigest) {
	m.mu.Lock()
	m.Inputs = append(m.Inputs, d)
	m.mu.Unlock()
}

// SetCoverage records the run's coverage/degraded state.
func (m *RunManifest) SetCoverage(c CoverageInfo) {
	m.mu.Lock()
	m.Coverage = &c
	m.mu.Unlock()
}

// SetDrops records the sanitizer's Table-1 drop accounting.
func (m *RunManifest) SetDrops(d DropStats) {
	m.mu.Lock()
	m.SanitizeDrops = &d
	m.mu.Unlock()
}

// Finish stamps the run's wall time, metric snapshot, and rendered span
// tree. Call once, when the run's work is complete.
func (m *RunManifest) Finish(wall time.Duration, metrics map[string]any, spanTree string) {
	m.mu.Lock()
	m.WallSeconds = wall.Seconds()
	m.Metrics = metrics
	m.SpanTree = spanTree
	m.mu.Unlock()
}

// WriteJSON renders the manifest as indented JSON (stable: struct field
// order is fixed and map keys marshal sorted).
func (m *RunManifest) WriteJSON(w io.Writer) error {
	m.mu.Lock()
	buf, err := json.MarshalIndent(m, "", "  ")
	m.mu.Unlock()
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// HashFile digests one file with SHA-256.
func HashFile(path string) (InputDigest, error) {
	f, err := os.Open(path)
	if err != nil {
		return InputDigest{}, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return InputDigest{}, err
	}
	return InputDigest{Path: path, SHA256: hex.EncodeToString(h.Sum(nil)), Bytes: n}, nil
}
