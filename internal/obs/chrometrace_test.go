package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// decodeTrace unmarshals an exported trace for assertions.
func decodeTrace(t *testing.T, raw string) chromeTraceFile {
	t.Helper()
	var file chromeTraceFile
	if err := json.Unmarshal([]byte(raw), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, raw)
	}
	return file
}

// TestChromeTraceExport checks the exported event stream: complete events
// for every span (with IDs, parents and items in args) and metadata naming
// the process.
func TestChromeTraceExport(t *testing.T) {
	tr := &Trace{}
	root := tr.Start("pipeline")
	child := tr.Start("sanitize")
	child.AddItems(100, "records")
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	file := decodeTrace(t, b.String())
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}

	byName := map[string][]chromeEvent{}
	var complete, meta int
	for _, ev := range file.TraceEvents {
		byName[ev.Name] = append(byName[ev.Name], ev)
		switch ev.Phase {
		case "X":
			complete++
			if ev.Dur < 1 {
				t.Errorf("complete event %q has dur %d < 1", ev.Name, ev.Dur)
			}
		case "M":
			meta++
		}
	}
	if complete != 2 {
		t.Errorf("complete events = %d, want 2", complete)
	}
	if meta == 0 {
		t.Error("no metadata events")
	}

	rootEv := byName["pipeline"][0]
	if rootEv.Args["span_id"] == nil {
		t.Error("root missing span_id")
	}
	sanEv := byName["sanitize"][0]
	if sanEv.Args["parent_id"] != rootEv.Args["span_id"] {
		t.Errorf("sanitize parent_id = %v, want %v", sanEv.Args["parent_id"], rootEv.Args["span_id"])
	}
	if sanEv.Args["records"] != float64(100) {
		t.Errorf("sanitize items arg = %v", sanEv.Args["records"])
	}
	if _, ok := sanEv.Args["per_second"]; !ok {
		t.Error("sanitize missing per_second arg")
	}
	// Nested sequential spans share the main track.
	if rootEv.TID != sanEv.TID {
		t.Errorf("nested spans on different tracks: %d vs %d", rootEv.TID, sanEv.TID)
	}
}

// TestChromeTraceFanOutTracks checks the track-flattening invariant: two
// partially-overlapping fan-out children may not share a track, while the
// containing parent stays on the spine.
func TestChromeTraceFanOutTracks(t *testing.T) {
	tr := &Trace{}
	parent := tr.Start("fanout")
	a := parent.Child("worker-a")
	time.Sleep(time.Millisecond)
	b := parent.Child("worker-b") // overlaps a: must land on another track
	time.Sleep(time.Millisecond)
	a.End()
	time.Sleep(time.Millisecond)
	b.End()
	parent.End()

	var buf strings.Builder
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	file := decodeTrace(t, buf.String())
	tids := map[string]int{}
	spans := map[string][2]int64{}
	for _, ev := range file.TraceEvents {
		if ev.Phase == "X" {
			tids[ev.Name] = ev.TID
			spans[ev.Name] = [2]int64{ev.TS, ev.TS + ev.Dur}
		}
	}
	if tids["worker-a"] == tids["worker-b"] {
		t.Errorf("overlapping fan-out children share track %d", tids["worker-a"])
	}
	// Whichever child shares the parent's track must be nested inside it.
	for _, name := range []string{"worker-a", "worker-b"} {
		if tids[name] == tids["fanout"] {
			p, c := spans["fanout"], spans[name]
			if c[0] < p[0] || c[1] > p[1] {
				t.Errorf("%s shares parent track but is not nested: %v outside %v", name, c, p)
			}
		}
	}
}

// TestChromeTraceOpenSpan checks that a still-open span exports with a
// provisional duration and an open marker instead of being dropped.
func TestChromeTraceOpenSpan(t *testing.T) {
	tr := &Trace{}
	s := tr.Start("still-running")
	time.Sleep(time.Millisecond)
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	s.End()
	file := decodeTrace(t, b.String())
	found := false
	for _, ev := range file.TraceEvents {
		if ev.Phase == "X" && ev.Name == "still-running" {
			found = true
			if ev.Args["open"] != true {
				t.Error("open span not marked open")
			}
			if ev.Dur < 1 {
				t.Errorf("open span dur = %d", ev.Dur)
			}
		}
	}
	if !found {
		t.Fatal("open span missing from export")
	}
}

// TestChromeTraceEmpty checks an empty trace still renders a loadable file.
func TestChromeTraceEmpty(t *testing.T) {
	tr := &Trace{}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	file := decodeTrace(t, b.String())
	if file.TraceEvents == nil {
		t.Error("traceEvents must be an array, not null")
	}
}
