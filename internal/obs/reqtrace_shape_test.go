package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestDebugRequestsShape pins the /debug/requests document — keys, nesting,
// omitted-when-zero fields, recent oldest-first, slowest slowest-first —
// against a golden with every time and latency masked. The handler encodes
// exactly ReqTracker.Snapshot, so a change to how a sampled request is held
// is shape-preserving exactly when this file's golden stays untouched.
func TestDebugRequestsShape(t *testing.T) {
	tr := NewReqTracker(1, 1, 2, 2)
	// Three requests on one route started together and finished a few
	// milliseconds apart: later finishes are strictly slower, the 2-slot
	// recent ring evicts the first, and the 2-slot shelf keeps the last two.
	paths := []string{"/v1/countries/AU", "/v1/countries/JP", "/v1/countries/RU"}
	t0 := time.Now()
	started := make([]func(), len(paths))
	for i, p := range paths {
		r := tr.Start(p)
		r.Mark("parse")
		r.Mark("lookup")
		started[i] = func() {
			r.Mark("write")
			tr.Finish(r, AccessEvent{Route: "country", Status: 200, Bytes: int64(1000 + i), Latency: time.Since(t0)})
		}
	}
	for _, finish := range started {
		time.Sleep(3 * time.Millisecond)
		finish()
	}
	// A revalidation: no body bytes, no write event.
	r := tr.Start("/v1/top/ccg")
	r.Mark("parse")
	r.Mark("lookup")
	tr.Finish(r, AccessEvent{Route: "top", Status: 304, Latency: time.Since(t0)})
	// One request still in flight.
	tr.Start("/v1/snapshot").Mark("parse")

	raw, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	raw = regexp.MustCompile(`"start":"[^"]*"`).ReplaceAll(raw, []byte(`"start":"T"`))
	raw = regexp.MustCompile(`"(latency_us|offset_us)":\d+`).ReplaceAll(raw, []byte(`"$1":0`))
	var got bytes.Buffer
	if err := json.Indent(&got, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	got.WriteByte('\n')

	const golden = "testdata/debug_requests_shape.json"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("/debug/requests shape differs from %s; got:\n%s", golden, got.String())
	}
}
