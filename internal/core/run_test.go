package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"countryrank/internal/obs"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

// stageSpans runs f and returns, in start order, the names of the spans it
// opened directly under a root — for a pipeline run, the stage list — and,
// as "/name", the spans a stage opened under itself. end, when set, sees
// every stage close.
func stageSpans(f func(), end func(name string)) []string {
	var names []string
	obs.DefaultTrace.OnStart = func(s *obs.Span) {
		switch s.Depth() {
		case 1:
			names = append(names, s.Name)
		case 2:
			names = append(names, "/"+s.Name)
		}
	}
	obs.DefaultTrace.OnEnd = func(s *obs.Span) {
		if s.Depth() == 1 && end != nil {
			end(s.Name)
		}
	}
	defer func() { obs.DefaultTrace.OnStart, obs.DefaultTrace.OnEnd = nil, nil }()
	f()
	return names
}

// TestStageOrderPinned: the three sources share one stage list after their
// own head, and the generated run's is the list the daemon's trace, the
// manifests and ci.sh's span-tree count were written against.
func TestStageOrderPinned(t *testing.T) {
	paths := exportDumps(t)
	w, col := partialWorld()
	run := func(src Source) []string {
		return stageSpans(func() {
			if _, err := Run(context.Background(), src, smallOpts()); err != nil {
				t.Fatal(err)
			}
		}, nil)
	}
	body := []string{"geolocate", "sanitize", "index", "precompute"}
	for _, tc := range []struct {
		name string
		src  Source
		head []string
	}{
		{"generated", Generated, []string{"topology", "propagation", "propagate"}},
		{"MRT files", MRTFiles(paths), []string{"topology", "mrt-import", "/index", "/decode", "/merge"}},
		{"in hand", inHand(w, col, complete(w)), nil},
	} {
		if got, want := run(tc.src), append(tc.head, body...); !slices.Equal(got, want) {
			t.Errorf("%s: stages %v, want %v", tc.name, got, want)
		}
	}
}

// TestCancelledRunStops cancels a real build as its first body stage closes:
// Run must return ctx.Err() without opening a later stage's span. A source
// that comes back cancelled stops before the body opens at all.
func TestCancelledRunStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var p *Pipeline
	var err error
	got := stageSpans(func() { p, err = Run(ctx, Generated, smallOpts()) }, func(name string) {
		if name == "geolocate" {
			cancel()
		}
	})
	if p != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned (%v, %v)", p, err)
	}
	if want := []string{"topology", "propagation", "propagate", "geolocate"}; !slices.Equal(got, want) {
		t.Fatalf("cancelled after geolocate, stages opened %v, want %v", got, want)
	}

	ctx, cancel = context.WithCancel(context.Background())
	src := func(opt Options, sp *obs.Span) (*topology.World, *routing.Collection, Coverage, error) {
		defer cancel()
		return Generated(opt, sp)
	}
	got = stageSpans(func() { _, err = Run(ctx, src, smallOpts()) }, nil)
	if !errors.Is(err, context.Canceled) || slices.Contains(got, "geolocate") {
		t.Fatalf("cancelled in the source: err %v, stages %v", err, got)
	}
}
