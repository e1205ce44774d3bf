package core

import (
	"reflect"
	"slices"
	"testing"

	"countryrank/internal/countries"
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

// TestViewIndexMatchesFullScan checks that the VP-indexed Outbound view and
// the cached country views equal a brute-force scan over every accepted
// record, and that the cache hands back one canonical slice; that the
// counting-sorted prefix-country index and the VP grouping hold, element for
// element, what appending each record to its key's slice builds; and that
// the VP grouping is only built once an Outbound view asks for it.
func TestViewIndexMatchesFullScan(t *testing.T) {
	p := NewPipeline(smallOpts())
	appendedByCountry := map[countries.Code][]int32{}
	appendedByVP := make([][]int32, len(p.DS.VPCountry))
	for i := 0; i < p.DS.Len(); i++ {
		vpIdx, pfxIdx, _ := p.DS.Record(i)
		c := p.DS.PrefixCountry[pfxIdx]
		appendedByCountry[c] = append(appendedByCountry[c], int32(i))
		appendedByVP[vpIdx] = append(appendedByVP[vpIdx], int32(i))
	}
	if !reflect.DeepEqual(p.byPrefixCountry, appendedByCountry) {
		t.Fatalf("counting-sorted index (%d countries) != per-record appends (%d countries)",
			len(p.byPrefixCountry), len(appendedByCountry))
	}
	p.Country("AU")
	p.Global()
	p.CTI("AU")
	p.Stability(CCI, "AU", []int{2}, 1, 7)
	if p.byVP.Order != nil {
		t.Fatal("byVP was grouped although no Outbound view was asked for")
	}
	p.ViewRecords(Outbound, "AU")
	for v, want := range appendedByVP {
		if got := p.byVP.Run(int32(v)); !slices.Equal(got, want) {
			t.Fatalf("VP %d: grouped run (%d recs) != per-record appends (%d recs)", v, len(got), len(want))
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
				vc := p.DS.VPCountry[vpIdx]
				in := false
				switch kind {
				case National:
					in = p.DS.PrefixCountry[pfxIdx] == c && vc == c
				case International:
					in = p.DS.PrefixCountry[pfxIdx] == c && vc != "" && vc != c
				case Outbound:
					in = vc == c && p.DS.PrefixCountry[pfxIdx] != c
				}
				if in {
					want = append(want, int32(i))
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: indexed view (%d recs) != full scan (%d recs)",
					kind, c, len(got), len(want))
			}
			again := p.ViewRecords(kind, c)
			if len(got) > 0 && &got[0] != &again[0] {
				t.Fatalf("%s/%s: cache returned a different slice on the second call", kind, c)
			}
		}
	}
}
