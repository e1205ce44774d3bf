package core

import (
	"reflect"
	"slices"
	"testing"

	"countryrank/internal/hegemony"
)

// TestStabilityDeterministic pins the parallel Stability contract: for a
// fixed seed the output depends only on the seed, never on scheduling.
func TestStabilityDeterministic(t *testing.T) {
	p := NewPipeline(smallOpts())
	sizes := []int{2, 4, 8}
	a := p.Stability(CCI, "AU", sizes, 6, 7)
	b := p.Stability(CCI, "AU", sizes, 6, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel Stability not deterministic for fixed seed:\n%v\n%v", a, b)
	}
	c := p.Stability(CCI, "AU", sizes, 6, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical Stability curves; sub-seeding looks broken")
	}
	// A curve of no trials has no mean to report (it used to print NaN for
	// zero trials and panic for a negative count).
	for _, trials := range []int{0, -1} {
		if pts := p.Stability(CCI, "AU", sizes, trials, 7); pts != nil {
			t.Errorf("Stability with %d trials = %v, want nil", trials, pts)
		}
	}
}

// TestOptionSentinels covers the Trim/Threshold zero-value design: the zero
// value means "paper default", the negative sentinels request an actual
// zero, and other values pass through.
func TestOptionSentinels(t *testing.T) {
	cases := []struct {
		name string
		in   Options
		trim float64
		thr  float64
	}{
		{"defaults", Options{}, hegemony.DefaultTrim, 0.5},
		{"no-trim ablation", Options{Trim: NoTrim}, 0, 0.5},
		{"plurality geolocation", Options{Threshold: PluralityThreshold}, hegemony.DefaultTrim, 0},
		{"explicit", Options{Trim: 0.25, Threshold: 0.8}, 0.25, 0.8},
	}
	for _, c := range cases {
		got := c.in.withDefaults()
		if got.Trim != c.trim || got.Threshold != c.thr {
			t.Errorf("%s: withDefaults() = trim %v thr %v, want trim %v thr %v",
				c.name, got.Trim, got.Threshold, c.trim, c.thr)
		}
	}
}

// TestViewIndexMatchesFullScan checks that the counting-sorted view index
// holds, slot for slot, what appending each accepted record to its (prefix
// country, kind) slot builds; that every national, international and
// outbound view equals a brute-force scan over the accepted records; and
// that a national or international view aliases the index rather than being
// rebuilt on each call.
func TestViewIndexMatchesFullScan(t *testing.T) {
	p := NewPipeline(smallOpts())
	appended := make([][]int32, len(p.views.off)-1)
	for i := 0; i < p.DS.Len(); i++ {
		vpIdx, pfxIdx, _ := p.DS.Record(i)
		pc := p.DS.PrefixCountry[pfxIdx]
		k, ok := p.views.country[pc]
		if !ok {
			t.Fatalf("record %d: prefix country %q has no slot", i, pc)
		}
		s := 2 * k
		if p.DS.VPCountry[vpIdx] != pc {
			s++
		}
		appended[s] = append(appended[s], int32(i))
	}
	for s, want := range appended {
		if got := p.views.order[p.views.off[s]:p.views.off[s+1]]; !slices.Equal(got, want) {
			t.Fatalf("slot %d: counting-sorted run (%d recs) != per-record appends (%d recs)", s, len(got), len(want))
		}
	}

	for _, c := range p.DS.CountriesWithPrefixes() {
		for _, kind := range []ViewKind{National, International, Outbound} {
			got := p.ViewRecords(kind, c)
			if got == nil {
				t.Fatalf("%s/%s: country view must not be nil", kind, c)
			}
			want := []int32{}
			for i := 0; i < p.DS.Len(); i++ {
				vpIdx, pfxIdx, _ := p.DS.Record(i)
				vc, pc := p.DS.VPCountry[vpIdx], p.DS.PrefixCountry[pfxIdx]
				in := false
				switch kind {
				case National:
					in = pc == c && vc == c
				case International:
					in = pc == c && vc != "" && vc != c
				case Outbound:
					in = vc == c && pc != c
				}
				if in {
					want = append(want, int32(i))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%s: indexed view (%d recs) != full scan (%d recs)",
					kind, c, len(got), len(want))
			}
			if kind == Outbound || len(got) == 0 {
				continue
			}
			if again := p.ViewRecords(kind, c); &got[0] != &again[0] {
				t.Fatalf("%s/%s: a second call rebuilt the view instead of aliasing the index", kind, c)
			}
		}
	}
}
