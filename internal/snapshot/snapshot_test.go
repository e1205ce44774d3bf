package snapshot

import (
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/countries"
	"countryrank/internal/export"
	"countryrank/internal/rank"
)

// testInfo resolves presentation metadata for the hand-built rankings, with
// one name exercising JSON escaping.
func testInfo(a asn.ASN) rank.ASInfo {
	switch a {
	case 1221:
		return rank.ASInfo{Name: "Telstra", Country: "AU"}
	case 4826:
		return rank.ASInfo{Name: `Vocus "VOCUS"`, Country: "AU"}
	case 7545:
		return rank.ASInfo{Name: "TPG\tInternet", Country: "AU"}
	}
	return rank.ASInfo{}
}

func testRanking(metric string) *rank.Ranking {
	return rank.New(metric, map[asn.ASN]float64{
		1221: 0.51, 4826: 0.2625, 7545: 0.125, 9999: 0,
	}, testInfo, true)
}

// TestAppendRankingMatchesCSV pins the batch/served equivalence the -json
// flag promises: the JSON encoding carries exactly the rows, fields, and
// value strings export.WriteRankingCSV writes.
func TestAppendRankingMatchesCSV(t *testing.T) {
	r := testRanking("CCI AU")

	var buf strings.Builder
	if err := export.WriteRankingCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rows = rows[1:] // header

	var got struct {
		Metric  string `json:"metric"`
		Entries []struct {
			Rank    int             `json:"rank"`
			ASN     uint32          `json:"asn"`
			Name    string          `json:"name"`
			Country string          `json:"country"`
			Value   json.RawMessage `json:"value"` // raw: compare the exact digits
		} `json:"entries"`
	}
	enc := AppendRanking(nil, r, 0)
	if err := json.Unmarshal(enc, &got); err != nil {
		t.Fatalf("AppendRanking produced invalid JSON: %v\n%s", err, enc)
	}
	if got.Metric != "CCI AU" {
		t.Errorf("metric = %q", got.Metric)
	}
	if len(got.Entries) != len(rows) {
		t.Fatalf("JSON has %d entries, CSV has %d rows", len(got.Entries), len(rows))
	}
	for i, e := range got.Entries {
		row := rows[i]
		if strconv.Itoa(e.Rank) != row[0] || strconv.FormatUint(uint64(e.ASN), 10) != row[1] ||
			e.Name != row[2] || e.Country != row[3] || string(e.Value) != row[4] {
			t.Errorf("entry %d: JSON {%d %d %q %q %s} != CSV row %v",
				i, e.Rank, e.ASN, e.Name, e.Country, e.Value, row)
		}
	}
}

// TestAppendRankingTopK checks the k truncation crank -top relies on.
func TestAppendRankingTopK(t *testing.T) {
	r := testRanking("AHG")
	var got struct {
		Entries []json.RawMessage `json:"entries"`
	}
	for k, want := range map[int]int{0: 3, 1: 1, 2: 2, 50: 3, -1: 3} {
		if err := json.Unmarshal(AppendRanking(nil, r, k), &got); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(got.Entries) != want {
			t.Errorf("k=%d: %d entries, want %d", k, len(got.Entries), want)
		}
	}
}

// TestAppendJSONStringEscaping pins the escaping rules against the stdlib
// decoder: whatever we emit must round-trip to the original string.
func TestAppendJSONStringEscaping(t *testing.T) {
	for _, s := range []string{
		"", "plain", `has "quotes"`, `back\slash`, "tab\there",
		"new\nline", "carriage\rreturn", "ctrl\x01\x1f", "utf8 Ünïcødé 日本",
	} {
		enc := appendJSONString(nil, s)
		var back string
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%q encoded to invalid JSON %s: %v", s, enc, err)
		}
		if back != s {
			t.Errorf("round trip %q -> %s -> %q", s, enc, back)
		}
	}
}

func testData(epoch int64) Data {
	return Data{
		Epoch: epoch,
		Countries: []CountryData{{
			Code: "AU", Name: countries.Name("AU"),
			CCI: testRanking("CCI AU"), CCN: testRanking("CCN AU"),
			AHI: testRanking("AHI AU"), AHN: testRanking("AHN AU"),
		}, {
			Code: "JP", Name: countries.Name("JP"),
			CCI: testRanking("CCI JP"), CCN: testRanking("CCN JP"),
			AHI: testRanking("AHI JP"), AHN: testRanking("AHN JP"),
		}},
		Tops: []TopData{
			{Metric: "ccg", Ranking: testRanking("CCG")},
			{Metric: "ahg", Ranking: testRanking("AHG")},
		},
	}
}

// TestAssemble checks the preserialized layout: valid JSON everywhere,
// correct variant counts, ETag/Content-Length agreement, and an index page
// naming everything.
func TestAssemble(t *testing.T) {
	s := Assemble(testData(3), Config{})
	if got := s.CountryCodes(); len(got) != 2 || got[0] != "AU" || got[1] != "JP" {
		t.Fatalf("CountryCodes = %v", got)
	}
	if got := s.TopMetrics(); len(got) != 2 || got[0] != "ahg" || got[1] != "ccg" {
		t.Fatalf("TopMetrics = %v", got)
	}

	var page struct {
		Country string                     `json:"country"`
		Name    string                     `json:"name"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(s.CountryBody("AU"), &page); err != nil {
		t.Fatalf("country page invalid JSON: %v", err)
	}
	if page.Country != "AU" || page.Name != "Australia" {
		t.Errorf("page = %q %q", page.Country, page.Name)
	}
	for _, m := range []string{"CCI", "CCN", "AHI", "AHN"} {
		if _, ok := page.Metrics[m]; !ok {
			t.Errorf("country page missing metric %s", m)
		}
	}

	// Three ranked ASes → three top variants, n embedded in each.
	vs := s.tops["ccg"]
	if len(vs) != 3 {
		t.Fatalf("ccg variants = %d, want 3", len(vs))
	}
	for i, v := range vs {
		var top struct {
			Metric  string            `json:"metric"`
			N       int               `json:"n"`
			Entries []json.RawMessage `json:"entries"`
		}
		if err := json.Unmarshal(v.body, &top); err != nil {
			t.Fatalf("top variant %d invalid JSON: %v", i, err)
		}
		if top.Metric != "ccg" || top.N != i+1 || len(top.Entries) != i+1 {
			t.Errorf("variant %d: metric=%q n=%d entries=%d", i, top.Metric, top.N, len(top.Entries))
		}
		if v.lenHdr[0] != strconv.Itoa(len(v.body)) {
			t.Errorf("variant %d Content-Length %s != %d", i, v.lenHdr[0], len(v.body))
		}
		if !strings.HasPrefix(v.etag, `"`) || !strings.HasSuffix(v.etag, `"`) || len(v.etag) != 66 {
			t.Errorf("variant %d etag %q not a quoted sha256", i, v.etag)
		}
	}

	var idx struct {
		Epoch     int64    `json:"epoch"`
		Digest    string   `json:"digest"`
		MaxTopN   int      `json:"max_top_n"`
		Tops      []string `json:"tops"`
		Countries []string `json:"countries"`
	}
	if err := json.Unmarshal(s.IndexBody(), &idx); err != nil {
		t.Fatalf("index invalid JSON: %v", err)
	}
	if idx.Epoch != 3 || idx.Digest != s.Digest || idx.MaxTopN != DefaultMaxTopN {
		t.Errorf("index = %+v (snapshot digest %s)", idx, s.Digest)
	}
	if len(idx.Countries) != 2 || len(idx.Tops) != 2 {
		t.Errorf("index lists %v %v", idx.Countries, idx.Tops)
	}
}

// TestDigestContentAddressed checks that the digest depends on served
// content only: same data at a different epoch keeps the digest (and every
// country ETag), while changed data moves it.
func TestDigestContentAddressed(t *testing.T) {
	a := Assemble(testData(1), Config{})
	b := Assemble(testData(2), Config{})
	if a.Digest != b.Digest {
		t.Errorf("digest changed with epoch alone: %s vs %s", a.Digest, b.Digest)
	}
	if a.CountryETag("AU") != b.CountryETag("AU") {
		t.Errorf("country ETag changed with epoch alone")
	}
	if string(a.IndexBody()) == string(b.IndexBody()) {
		t.Errorf("index should differ across epochs")
	}

	d := testData(1)
	d.Countries = d.Countries[:1]
	c := Assemble(d, Config{})
	if c.Digest == a.Digest {
		t.Errorf("digest unchanged after dropping a country")
	}
}

// TestMaxTopNCapsVariants checks Config.MaxTopN truncation.
func TestMaxTopNCapsVariants(t *testing.T) {
	s := Assemble(testData(1), Config{MaxTopN: 2})
	if len(s.tops["ccg"]) != 2 {
		t.Errorf("variants = %d, want 2", len(s.tops["ccg"]))
	}
	var page struct {
		Metrics map[string]struct {
			Entries []json.RawMessage `json:"entries"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(s.CountryBody("AU"), &page); err != nil {
		t.Fatal(err)
	}
	if n := len(page.Metrics["CCI"].Entries); n != 2 {
		t.Errorf("country page CCI entries = %d, want 2", n)
	}
}

// TestEmptyRankingVariant: a metric that ranked nothing still answers.
func TestEmptyRankingVariant(t *testing.T) {
	empty := rank.New("CCG", nil, nil, true)
	s := Assemble(Data{Tops: []TopData{{Metric: "ccg", Ranking: empty}}}, Config{})
	vs := s.tops["ccg"]
	if len(vs) != 1 {
		t.Fatalf("variants = %d, want 1", len(vs))
	}
	var top struct {
		N       int               `json:"n"`
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(vs[0].body, &top); err != nil {
		t.Fatal(err)
	}
	if top.N != 0 || len(top.Entries) != 0 {
		t.Errorf("empty variant n=%d entries=%d", top.N, len(top.Entries))
	}
}
