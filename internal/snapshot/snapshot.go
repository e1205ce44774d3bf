// Package snapshot renders a ranking run into an immutable, preserialized
// form and serves it over HTTP with a zero-allocation hot path.
//
// A Snapshot is built once — every country page and every /v1/top variant
// is encoded to its final JSON bytes up front, with the ETag (a strong
// content SHA-256) and Content-Length precomputed alongside — and then
// published by an atomic pointer swap (Store). The request path never
// encodes anything: it resolves the preserialized entity, assigns the
// precomputed header slices by reference, answers If-None-Match revalidation
// with a bodyless 304, and otherwise writes the stored bytes verbatim.
// Because snapshots are immutable, rollover under load is safe by
// construction: in-flight requests keep serving the snapshot pointer they
// loaded, new requests observe the new one, and an unpinned old snapshot is
// reclaimed by the garbage collector once the last response referencing it
// completes.
//
// The same encoder backs batch output (crank -json), so a ranking fetched
// from rankd and one written by a batch run are byte-identical.
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"time"

	"countryrank/internal/asn"
	"countryrank/internal/core"
	"countryrank/internal/countries"
	"countryrank/internal/obs"
	"countryrank/internal/par"
	"countryrank/internal/rank"
)

// DefaultMaxTopN caps ?n= on the top endpoints (and the per-country list
// length) when Config.MaxTopN is zero.
const DefaultMaxTopN = 100

// Config shapes a snapshot build.
type Config struct {
	// MaxTopN caps the /v1/top ?n= parameter and the per-country entry
	// lists. Zero selects DefaultMaxTopN.
	MaxTopN int
}

func (c Config) maxTopN() int {
	if c.MaxTopN <= 0 {
		return DefaultMaxTopN
	}
	return c.MaxTopN
}

// entity is one preserialized response: the exact bytes a 200 writes, plus
// the header values the hot path assigns by reference (single-element
// slices, so no []string is allocated per request).
type entity struct {
	body    []byte
	etag    string // strong ETag: quoted hex SHA-256 of body
	etagHdr []string
	lenHdr  []string
}

func newEntity(body []byte) *entity {
	sum := sha256.Sum256(body)
	etag := `"` + hex.EncodeToString(sum[:]) + `"`
	return &entity{
		body:    body,
		etag:    etag,
		etagHdr: []string{etag},
		lenHdr:  []string{strconv.Itoa(len(body))},
	}
}

// Snapshot is one immutable rendering of a ranking run. All fields are
// written during assembly and never mutated afterwards; the serving path
// only reads.
type Snapshot struct {
	// Epoch is the publisher's monotonically increasing snapshot number.
	Epoch int64
	// Digest identifies the snapshot content: a SHA-256 over every country
	// body and every full top body, in sorted key order. Two snapshots with
	// the same digest serve byte-identical data (their country ETags agree),
	// so a refresh that recomputes unchanged rankings stays 304-friendly.
	Digest string
	// Degraded marks a snapshot built from a quorum-degraded pipeline (data
	// was lost on ingest). The supervisor's publish gate refuses to replace
	// a healthy snapshot with a degraded one unless explicitly allowed.
	Degraded bool
	// Stale marks a snapshot warm-loaded from disk at boot: the data is the
	// last good publish of a previous process, served while the first real
	// build runs. The index page carries the flag so clients can tell.
	Stale bool
	// SavedAt is when a warm-loaded snapshot was persisted by the previous
	// process (zero for freshly built snapshots); the supervisor uses it to
	// account snapshot age across restarts.
	SavedAt time.Time

	// ranks is the published content as data; every entity below, the
	// digest and the index page are rendered from it by seal. Immutable:
	// Diff reads it and the history ring keeps a reference to it.
	ranks *content

	countries map[string]*entity // "AU" → country page
	// tops maps a metric key ("ccg") to its preserialized top-N variants;
	// variant[i] serves n = i+1. An empty ranking keeps one n=0 variant.
	tops    map[string][]*entity
	index   *entity // the /v1/snapshot metadata page
	maxTopN int

	// history holds the preserialized /v1/countries/{cc}/history pages,
	// rendered by Store.Publish from its epoch ring before the snapshot
	// becomes visible (so serving them is as zero-alloc as any entity).
	// Nil until then; the endpoint then 404s.
	history map[string]*entity
}

// countryMetricKeys is the fixed per-country metric order, everywhere a
// country's four rank vectors are stored, rendered, persisted or diffed.
var countryMetricKeys = [4]string{"CCI", "CCN", "AHI", "AHN"}

// RankEntry is one AS in a rank vector; the slice index is the 0-based
// rank.
type RankEntry struct {
	ASN   asn.ASN
	Value float64
	Name  string
	// Country is the AS's own country, which need not be the ranking's.
	Country countries.Code
}

// RankVec is one ranking's ordered top-K, at most the snapshot's MaxTopN
// entries. Name is what the rendered ranking calls itself: the ranking's
// metric name ("CCI AU") on a country page, the URL key ("ccg") for a
// global top.
type RankVec struct {
	Name    string
	Entries []RankEntry
}

// countryRanks is one country's display name and its four vectors, in
// countryMetricKeys order.
type countryRanks struct {
	name string
	vecs [4]RankVec
}

// content is everything a snapshot publishes, as data: "AU" → that
// country's vectors, and top metric key → its vector. A generation file
// stores exactly this.
type content struct {
	countries map[string]countryRanks
	tops      map[string]RankVec
}

// CountryData is one country's rankings as fed to Assemble.
type CountryData struct {
	Code               countries.Code
	Name               string
	CCI, CCN, AHI, AHN *rank.Ranking
}

// TopData is one global top-N endpoint: Metric is the lower-case URL key
// ("ccg", "ahg").
type TopData struct {
	Metric  string
	Ranking *rank.Ranking
}

// Data is the assembly input: already-computed rankings, no pipeline
// machinery. Build gathers it from a core.Pipeline; tests hand-craft it.
type Data struct {
	Epoch     int64
	Countries []CountryData
	Tops      []TopData
	// Degraded labels the snapshot as built from lossy ingest; see
	// Snapshot.Degraded.
	Degraded bool
}

// CountryCodes lists the snapshot's countries in sorted order.
func (s *Snapshot) CountryCodes() []string {
	out := make([]string, 0, len(s.countries))
	for cc := range s.countries {
		out = append(out, cc)
	}
	slices.Sort(out)
	return out
}

// TopMetrics lists the snapshot's top-endpoint metric keys in sorted order.
func (s *Snapshot) TopMetrics() []string {
	out := make([]string, 0, len(s.tops))
	for m := range s.tops {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}

// MaxTopN reports the snapshot's ?n= cap.
func (s *Snapshot) MaxTopN() int { return s.maxTopN }

// CountryBody returns cc's preserialized page (nil when absent). The result
// aliases snapshot-internal state and must not be mutated.
func (s *Snapshot) CountryBody(cc string) []byte {
	if e, ok := s.countries[cc]; ok {
		return e.body
	}
	return nil
}

// IndexBody returns the preserialized /v1/snapshot page.
func (s *Snapshot) IndexBody() []byte { return s.index.body }

// Assemble preserializes the given rankings into an immutable Snapshot.
func Assemble(d Data, cfg Config) *Snapshot {
	k := cfg.maxTopN()
	c := &content{
		countries: make(map[string]countryRanks, len(d.Countries)),
		tops:      make(map[string]RankVec, len(d.Tops)),
	}
	for _, cd := range d.Countries {
		c.countries[string(cd.Code)] = countryRanks{name: cd.Name, vecs: [4]RankVec{
			rankVec(cd.CCI, k), rankVec(cd.CCN, k), rankVec(cd.AHI, k), rankVec(cd.AHN, k),
		}}
	}
	for _, td := range d.Tops {
		v := rankVec(td.Ranking, k)
		v.Name = td.Metric
		c.tops[td.Metric] = v
	}
	return seal(c, d.Epoch, d.Degraded, false, k)
}

// rankVec extracts a ranking's ordered top-k (k <= 0 means all) as
// structured entries.
func rankVec(r *rank.Ranking, k int) RankVec {
	entries := r.Entries
	if k > 0 && k < len(entries) {
		entries = entries[:k]
	}
	v := RankVec{Name: r.Metric, Entries: make([]RankEntry, len(entries))}
	for i, e := range entries {
		v.Entries[i] = RankEntry{ASN: e.ASN, Value: e.Value, Name: e.Info.Name, Country: e.Info.Country}
	}
	return v
}

// seal is the one constructor of a Snapshot. It renders c — whose vectors
// hold at most maxTopN entries each — into every country page and top
// variant, derives the content digest from those bodies and preserializes
// the index page. Assemble reaches it with vectors taken from rankings,
// LoadFile with vectors decoded from a generation file, so a loaded
// snapshot's pages, ETags and digest come from exactly the code that
// produced the persisted one's.
func seal(c *content, epoch int64, degraded, stale bool, maxTopN int) *Snapshot {
	s := &Snapshot{
		Epoch:     epoch,
		Degraded:  degraded,
		Stale:     stale,
		ranks:     c,
		countries: make(map[string]*entity, len(c.countries)),
		tops:      make(map[string][]*entity, len(c.tops)),
		maxTopN:   maxTopN,
	}
	for cc, cr := range c.countries {
		s.countries[cc] = newEntity(appendCountry(nil, cc, cr))
	}
	for m, v := range c.tops {
		s.tops[m] = topVariants(v)
	}
	// The digest covers every body in sorted key order, so it is a function
	// of the served content alone (not of assembly order, epoch, or the
	// stale/degraded markers carried on the index page).
	h := sha256.New()
	for _, cc := range s.CountryCodes() {
		h.Write([]byte("country:" + cc + "\n"))
		h.Write(s.countries[cc].body)
	}
	for _, m := range s.TopMetrics() {
		vs := s.tops[m]
		h.Write([]byte("top:" + m + "\n"))
		h.Write(vs[len(vs)-1].body)
	}
	s.Digest = hex.EncodeToString(h.Sum(nil))
	s.index = newEntity(appendIndex(nil, s))
	return s
}

// Build renders the pipeline's rankings into a Snapshot: the four country
// metrics for every known country (countries that ranked no AS are
// skipped) plus the global CCG/AHG top endpoints. Countries fan out across
// the worker pool; each country runs its own four-kernel computation.
func Build(p *core.Pipeline, epoch int64, cfg Config) *Snapshot {
	sp := obs.StartSpan("snapshot-build")
	defer sp.End()
	list := countries.All()
	got := make([]*CountryData, len(list))
	cs := sp.Child("countries")
	par.ForEach(len(list), func(i int) {
		c := list[i]
		cr := p.Country(c)
		if cr.CCI.Len() == 0 && cr.CCN.Len() == 0 && cr.AHI.Len() == 0 && cr.AHN.Len() == 0 {
			return
		}
		got[i] = &CountryData{
			Code: c, Name: countries.Name(c),
			CCI: cr.CCI, CCN: cr.CCN, AHI: cr.AHI, AHN: cr.AHN,
		}
	})
	d := Data{Epoch: epoch, Degraded: p.Coverage.Degraded()}
	for _, cd := range got {
		if cd != nil {
			d.Countries = append(d.Countries, *cd)
		}
	}
	cs.End()
	gs := sp.Child("global")
	ccg, ahg := p.Global()
	d.Tops = []TopData{{Metric: "ccg", Ranking: ccg}, {Metric: "ahg", Ranking: ahg}}
	gs.End()
	sp.AddItems(int64(len(d.Countries)), "countries")
	as := sp.Child("assemble")
	defer as.End()
	return Assemble(d, cfg)
}

// topVariants preserializes one body per n in [1, len(v.Entries)] — ~k²/2
// entry encodings, a few hundred KB at the default cap, in exchange for a
// single-write zero-encode response at any n. An empty ranking keeps one
// n=0 variant so the endpoint still answers.
func topVariants(v RankVec) []*entity {
	if len(v.Entries) == 0 {
		return []*entity{newEntity(appendTop(nil, v, 0))}
	}
	out := make([]*entity, len(v.Entries))
	for n := 1; n <= len(v.Entries); n++ {
		out[n-1] = newEntity(appendTop(nil, v, n))
	}
	return out
}

// appendCountry renders one country page:
//
//	{"country":"AU","name":"Australia","metrics":{"CCI":{...},"CCN":{...},"AHI":{...},"AHN":{...}}}
func appendCountry(dst []byte, cc string, cr countryRanks) []byte {
	dst = append(dst, `{"country":`...)
	dst = appendJSONString(dst, cc)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, cr.name)
	dst = append(dst, `,"metrics":{`...)
	for i, key := range countryMetricKeys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = append(dst, key...)
		dst = append(dst, `":`...)
		dst = appendRankVec(dst, cr.vecs[i])
	}
	return append(dst, `}}`...)
}

// appendTop renders one /v1/top variant:
//
//	{"metric":"ccg","n":5,"entries":[...]}
func appendTop(dst []byte, v RankVec, n int) []byte {
	dst = append(dst, `{"metric":`...)
	dst = appendJSONString(dst, v.Name)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, `,"entries":`...)
	dst = appendEntries(dst, v.Entries[:n])
	return append(dst, '}')
}

// appendIndex renders the /v1/snapshot metadata page. The stale and
// degraded markers ride here — not in the country/top bodies — so a
// warm-started daemon advertises "last good data, possibly old" without
// moving the content digest or any cached ETag.
func appendIndex(dst []byte, s *Snapshot) []byte {
	dst = append(dst, `{"epoch":`...)
	dst = strconv.AppendInt(dst, s.Epoch, 10)
	dst = append(dst, `,"digest":`...)
	dst = appendJSONString(dst, s.Digest)
	dst = append(dst, `,"stale":`...)
	dst = strconv.AppendBool(dst, s.Stale)
	dst = append(dst, `,"degraded":`...)
	dst = strconv.AppendBool(dst, s.Degraded)
	dst = append(dst, `,"max_top_n":`...)
	dst = strconv.AppendInt(dst, int64(s.maxTopN), 10)
	dst = append(dst, `,"tops":[`...)
	for i, m := range s.TopMetrics() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, m)
	}
	dst = append(dst, `],"countries":[`...)
	for i, cc := range s.CountryCodes() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, cc)
	}
	return append(dst, `]}`...)
}

// AppendRanking appends the JSON encoding of r's top k entries (k <= 0
// means all) to dst:
//
//	{"metric":"CCI AU","entries":[{"rank":1,"asn":1221,"name":"...","country":"AU","value":0.123456},...]}
//
// Values are fixed 6-decimal — the exact strings export.WriteRankingCSV
// writes — so batch CSV, batch JSON (crank -json), and served snapshot
// bytes all agree on content.
func AppendRanking(dst []byte, r *rank.Ranking, k int) []byte {
	return appendRankVec(dst, rankVec(r, k))
}

func appendRankVec(dst []byte, v RankVec) []byte {
	dst = append(dst, `{"metric":`...)
	dst = appendJSONString(dst, v.Name)
	dst = append(dst, `,"entries":`...)
	dst = appendEntries(dst, v.Entries)
	return append(dst, '}')
}

func appendEntries(dst []byte, entries []RankEntry) []byte {
	dst = append(dst, '[')
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"rank":`...)
		dst = strconv.AppendInt(dst, int64(i+1), 10)
		dst = append(dst, `,"asn":`...)
		dst = strconv.AppendUint(dst, uint64(e.ASN), 10)
		dst = append(dst, `,"name":`...)
		dst = appendJSONString(dst, e.Name)
		dst = append(dst, `,"country":`...)
		dst = appendJSONString(dst, string(e.Country))
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendFloat(dst, e.Value, 'f', 6, 64)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping the quote,
// the backslash, and control characters (RFC 8259 §7). Multi-byte UTF-8
// passes through verbatim, which JSON permits.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c >= 0x20:
			dst = append(dst, c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
	}
	return append(dst, '"')
}
