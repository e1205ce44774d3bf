package rank

import (
	"strings"
	"testing"

	"countryrank/internal/asn"
)

func info(a asn.ASN) ASInfo {
	names := map[asn.ASN]ASInfo{
		1221: {Name: "Telstra", Country: "AU"},
		4826: {Name: "Vocus", Country: "AU"},
		1299: {Name: "Arelion", Country: "SE"},
	}
	return names[a]
}

func TestNewOrderingAndTies(t *testing.T) {
	r := New("CCI", map[asn.ASN]float64{1221: 0.4, 4826: 0.8, 1299: 0.8, 7545: 0}, info, false)
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	// 1299 and 4826 tie at 0.8: the lower ASN wins.
	want := []asn.ASN{1299, 4826, 1221, 7545}
	for i, e := range r.Entries {
		if e.ASN != want[i] || e.Rank != i+1 {
			t.Errorf("entry %d = %+v, want %v", i, e, want[i])
		}
	}
	if rk, ok := r.RankOf(1221); !ok || rk != 3 {
		t.Errorf("RankOf(1221) = %d,%v", rk, ok)
	}
	if _, ok := r.RankOf(9999); ok {
		t.Error("unranked AS should miss")
	}
	if v := r.ValueOf(4826); v != 0.8 {
		t.Errorf("ValueOf = %f", v)
	}
	if v := r.ValueOf(9999); v != 0 {
		t.Errorf("ValueOf(unranked) = %f", v)
	}
}

func TestDropZero(t *testing.T) {
	r := New("AHN", map[asn.ASN]float64{1: 0.5, 2: 0}, nil, true)
	if r.Len() != 1 || r.Entries[0].ASN != 1 {
		t.Errorf("dropZero kept %+v", r.Entries)
	}
}

func TestTopAndTopASNs(t *testing.T) {
	r := New("m", map[asn.ASN]float64{1: 3, 2: 2, 3: 1}, nil, false)
	if got := r.TopASNs(2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("TopASNs = %v", got)
	}
	if got := r.Top(99); len(got) != 3 {
		t.Errorf("Top overflow = %v", got)
	}
	if got := r.Top(-1); len(got) != 0 {
		t.Errorf("Top(-1) = %v, want no entries", got)
	}
}

func TestDelta(t *testing.T) {
	old := New("CCI", map[asn.ASN]float64{10: 0.9, 20: 0.8, 30: 0.7}, nil, false)
	new_ := New("CCI", map[asn.ASN]float64{20: 0.95, 10: 0.85, 40: 0.5}, nil, false)
	d := Delta(old, new_, 3)
	if len(d) != 3 {
		t.Fatalf("delta = %+v", d)
	}
	// 20 climbed from 2 to 1.
	if d[0].ASN != 20 || d[0].RankDelta != 1 || !d[0].WasRanked {
		t.Errorf("d[0] = %+v", d[0])
	}
	if diff := d[0].ValueDiff; diff < 0.149 || diff > 0.151 {
		t.Errorf("value diff = %f", diff)
	}
	// 10 slipped from 1 to 2.
	if d[1].ASN != 10 || d[1].RankDelta != -1 {
		t.Errorf("d[1] = %+v", d[1])
	}
	// 40 is new.
	if d[2].ASN != 40 || d[2].WasRanked {
		t.Errorf("d[2] = %+v", d[2])
	}
}

func TestRender(t *testing.T) {
	r := New("CCI Australia", map[asn.ASN]float64{1221: 0.44, 4826: 0.81}, info, false)
	out := r.Render(2)
	if !strings.Contains(out, "Vocus") || !strings.Contains(out, "Telstra") || !strings.Contains(out, "81.00%") {
		t.Errorf("render:\n%s", out)
	}
}
