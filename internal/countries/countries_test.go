package countries

import "testing"

func TestKnownAndName(t *testing.T) {
	if !Known("US") || !Known("TW") || !Known("EU") {
		t.Error("expected US, TW, EU to be known")
	}
	if Known("XX") {
		t.Error("XX should be unknown")
	}
	if Name("JP") != "Japan" {
		t.Errorf("Name(JP) = %q", Name("JP"))
	}
	if Name("XX") != "XX" {
		t.Errorf("Name of unknown should echo the code, got %q", Name("XX"))
	}
}

func TestContinentOf(t *testing.T) {
	cases := map[Code]Continent{
		"US": NorthAmerica, "BR": SouthAmerica, "DE": Europe,
		"ZA": Africa, "JP": Asia, "AU": Oceania, "RU": Europe, "MU": Africa,
	}
	for c, want := range cases {
		got, ok := ContinentOf(c)
		if !ok || got != want {
			t.Errorf("ContinentOf(%s) = %v, %v; want %v", c, got, ok, want)
		}
	}
	if _, ok := ContinentOf("XX"); ok {
		t.Error("unknown code should not have a continent")
	}
}

func TestAllSortedAndComplete(t *testing.T) {
	all := All()
	if len(all) == 0 {
		t.Fatal("All returned nothing")
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Errorf("All not sorted at %d: %s >= %s", i, all[i-1], all[i])
		}
	}
	// Every paper case-study country is modeled.
	for _, c := range []Code{"AU", "JP", "RU", "US", "TW", "UA"} {
		if !Known(c) {
			t.Errorf("case-study country %s missing", c)
		}
	}
}

func TestFormerSovietBloc(t *testing.T) {
	for _, c := range FormerSovietBloc() {
		if !Known(c) {
			t.Errorf("soviet-bloc country %s unknown", c)
		}
	}
}
