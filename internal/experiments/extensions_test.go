package experiments

import (
	"fmt"
	"strings"
	"testing"

	"countryrank/internal/countries"
)

func TestConcentration(t *testing.T) {
	p, _ := pipelines(t)
	c := RunConcentration(p, []countries.Code{"AU", "US", "RU", "JP"})
	if len(c.Rows) != 4 {
		t.Fatalf("rows = %d", len(c.Rows))
	}
	byC := map[countries.Code]ConcentrationRow{}
	for _, r := range c.Rows {
		if r.Market.HHI <= 0 || r.Market.HHI > 10000 {
			t.Errorf("%s HHI = %f", r.Country, r.Market.HHI)
		}
		if r.Market.CR1 > r.Market.CR3 {
			t.Errorf("%s CR1 %f > CR3 %f", r.Country, r.Market.CR1, r.Market.CR3)
		}
		byC[r.Country] = r
	}
	// §5.4: the U.S. market is less concentrated than the incumbent-led
	// Australian one.
	if byC["US"].Market.HHI >= byC["AU"].Market.HHI {
		t.Errorf("US HHI %.0f should be below AU %.0f",
			byC["US"].Market.HHI, byC["AU"].Market.HHI)
	}
	if !strings.Contains(c.Render(), "HHI") {
		t.Error("render")
	}
}

func TestDependenceMatrix(t *testing.T) {
	p, _ := pipelines(t)
	m := RunDependenceMatrix(p, []countries.Code{"TM", "KZ", "UA", "AU"})
	// Central Asia depends on Russia; Ukraine does not (Figure 7).
	if c, v := m.TopForeignDependence("TM"); c != "RU" || v < 0.2 {
		t.Errorf("TM depends on %s at %f, want RU strongly", c, v)
	}
	if c, _ := m.TopForeignDependence("UA"); c == "RU" {
		t.Error("UA should not depend most on RU")
	}
	// Australia's strongest foreign dependence is a Western multinational.
	if c, v := m.TopForeignDependence("AU"); !(c == "SE" || c == "US") || v < 0.1 {
		t.Errorf("AU depends on %s at %f", c, v)
	}
	if !strings.Contains(m.Render(), "depends most on") {
		t.Error("render")
	}
}

func TestResilience(t *testing.T) {
	p, _ := pipelines(t)
	r := RunResilience(p, w21, col21, "JP", 2)
	if len(r.Impacts) == 0 {
		t.Fatal("no failure impacts")
	}
	for _, im := range r.Impacts {
		if im.TotalRecords == 0 {
			t.Errorf("impact %v-%v has no baseline", im.A, im.B)
		}
		if im.ChangedRecords < 0 || im.LostRecords < 0 {
			t.Errorf("negative counts: %+v", im)
		}
	}
	if !strings.Contains(r.Render(), "failed link") {
		t.Error("render")
	}
}

// TestInferenceValidation pins the one inference measurement: at this
// seed and scale (1, 0.4/0.5) the numbers are deterministic, and they can
// only come out this way if the generator's truth reaches validation.
func TestInferenceValidation(t *testing.T) {
	p, _ := pipelines(t)
	v := RunInferenceValidation(p, w21)
	if v.CliqueHits != 15 || v.CliqueSize != 16 || v.CliqueTruth != 16 {
		t.Errorf("clique: %d/%d inferred members true (truth size %d), want 15/16 (16)", v.CliqueHits, v.CliqueSize, v.CliqueTruth)
	}
	if acc := fmt.Sprintf("%.3f", v.Val.Accuracy()); v.Val.Compared != 1583 || acc != "0.941" {
		t.Errorf("validation: %d compared, %s accurate, want 1583 and 0.941", v.Val.Compared, acc)
	}
	if !strings.Contains(v.Render(), "clique") {
		t.Error("render")
	}
}
