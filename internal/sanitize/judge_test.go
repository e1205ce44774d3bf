package sanitize

import (
	"math/rand"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
)

// judgePath is the sanitizer's original path judge, retained as the
// executable specification of judge.judge: it applies the path-content filters
// and cleaning of §3.1 one allocating step at a time.
func judgePath(p bgp.Path, cfg Config) struct {
	reason Reason
	clean  bgp.Path
} {
	out := struct {
		reason Reason
		clean  bgp.Path
	}{reason: Accepted}

	for _, a := range p {
		if cfg.Registry != nil && !cfg.Registry.Allocated(a) {
			out.reason = Unallocated
			return out
		}
	}
	dedup := p.DedupAdjacent()
	if dedup.HasNonAdjacentLoop() {
		out.reason = Loop
		return out
	}
	if cfg.Clique != nil && poisoned(dedup, cfg.Clique) {
		out.reason = Poisoned
		return out
	}
	// Clean: drop route-server hops, then collapse any prepending.
	clean := dedup
	if len(cfg.RouteServers) > 0 {
		filtered := make(bgp.Path, 0, len(dedup))
		for _, a := range dedup {
			if !cfg.RouteServers[a] {
				filtered = append(filtered, a)
			}
		}
		clean = filtered.DedupAdjacent()
	}
	out.clean = clean
	return out
}

// poisoned reports whether a non-clique AS sits between two clique ASes,
// the signature of path poisoning under the valley-free assumption (§3.1).
func poisoned(p bgp.Path, clique map[asn.ASN]bool) bool {
	last := -1 // index of the previous clique AS
	for i, a := range p {
		if !clique[a] {
			continue
		}
		if last >= 0 && i-last > 1 {
			return true
		}
		last = i
	}
	return false
}

// judgeTestConfig is a small universe in which every filter can fire:
// ASNs 1..40 and 1000..1999 are allocated, 1..4 form the clique and 31..34
// are route servers. Private-use and unknown ASNs are not allocated.
func judgeTestConfig() Config {
	var allocated []asn.ASN
	for a := asn.ASN(1); a <= 40; a++ {
		allocated = append(allocated, a)
	}
	for a := asn.ASN(1000); a < 2000; a++ {
		allocated = append(allocated, a)
	}
	return Config{
		Registry:     asn.NewRegistry(allocated),
		Clique:       map[asn.ASN]bool{1: true, 2: true, 3: true, 4: true},
		RouteServers: map[asn.ASN]bool{31: true, 32: true, 33: true, 34: true},
	}
}

// checkJudge compares one verdict of j with the reference's and checks the
// aliasing contract — the clean form is the judge's own storage, never the
// input's, which judging leaves as it was — and the trust boundary: judging
// a path only looks its ASNs up, so the flag table keeps the pages newJudge
// gave it.
func checkJudge(t testing.TB, j *judge, cfg Config, p bgp.Path) (Reason, bgp.Path) {
	t.Helper()
	want := judgePath(p, cfg)
	in := p.Clone()
	pages := j.flags.Pages()
	reason, clean := j.judge(p)
	if got := j.flags.Pages(); got != pages {
		t.Fatalf("judge(%v) grew the flag table from %d to %d pages", p, pages, got)
	}
	if !p.Equal(in) {
		t.Fatalf("judge(%v) changed its input to %v", in, p)
	}
	if reason != want.reason {
		t.Fatalf("judge(%v): reason %v, reference says %v", p, reason, want.reason)
	}
	if !clean.Equal(want.clean) {
		t.Fatalf("judge(%v): clean form %v, reference says %v", p, clean, want.clean)
	}
	if reason != Accepted && clean != nil {
		t.Fatalf("judge(%v): rejected (%v) with a clean form %v", p, reason, clean)
	}
	if len(clean) > 0 && &clean[0] == &p[0] {
		t.Fatalf("judge(%v): clean form %v aliases the input", p, clean)
	}
	return reason, clean
}

// randomJudgePath draws a path over judgeTestConfig's universe shaped so that
// prepending, route servers (at the ends, adjacent to each other, making up
// the whole path), loops, clique sandwiches and unallocated ASNs all occur.
// One path in eight is long — past HasNonAdjacentLoop's pairwise threshold —
// and drawn mostly from the wide allocated range, so that some long paths
// survive every filter.
func randomJudgePath(rng *rand.Rand) bgp.Path {
	n, long := rng.Intn(9), rng.Intn(8) == 0
	if long {
		n = 20 + rng.Intn(60)
	}
	allRS := rng.Intn(12) == 0
	hop := func() asn.ASN {
		if long && !allRS && rng.Intn(40) != 0 {
			return asn.ASN(1000 + rng.Intn(1000))
		}
		switch r := rng.Intn(100); {
		case allRS || r < 12:
			return asn.ASN(31 + rng.Intn(4))
		case r < 30:
			return asn.ASN(1 + rng.Intn(4))
		case r < 32:
			return asn.ASN(64512 + rng.Intn(4)) // private use
		case r < 33:
			return asn.ASN(70000 + rng.Intn(4)) // never allocated
		}
		return asn.ASN(5 + rng.Intn(26))
	}
	p := make(bgp.Path, 0, n)
	for len(p) < n {
		a := hop()
		p = append(p, a)
		for rng.Intn(5) == 0 && len(p) < n {
			p = append(p, a) // prepending
		}
	}
	return p
}

// TestJudgeMatchesReference is the judge's whole contract: the verdict and
// clean form of the retained allocating reference, over hand-picked paths
// that sit on each rule's edge and over generated ones, with one judge
// reused throughout so stale buffer state would show.
func TestJudgeMatchesReference(t *testing.T) {
	cfg := judgeTestConfig()
	j := newJudge(cfg)
	seen := map[Reason]int{}
	emptied, unchanged, changed, longClean := 0, 0, 0, 0
	run := func(p bgp.Path) {
		reason, clean := checkJudge(t, j, cfg, p)
		seen[reason]++
		if len(clean) > 32 {
			longClean++
		}
		switch {
		case reason != Accepted:
		case len(clean) == 0 && len(p) > 0:
			emptied++
		case clean.Equal(p):
			unchanged++
		default:
			changed++
		}
	}
	for _, p := range []bgp.Path{
		nil, {}, {7}, {7, 7, 7}, {31}, {31, 32}, {31, 31, 32, 33}, // empty, prepend-only, all route servers
		{31, 7, 8}, {7, 8, 31}, {7, 31, 32, 8}, {7, 31, 7, 8}, // RS at the ends, adjacent, between equal hops (a loop first)
		{7, 7, 31, 8, 8, 9}, {7, 31, 31, 7}, // prepending around and across a dropped RS
		{7, 8, 7}, {7, 8, 8, 7}, {7, 8, 9, 8}, // loops
		{1, 9, 2}, {1, 2, 9}, {1, 31, 2}, {9, 1, 8, 8, 2, 7}, {1, 1, 2, 2, 3}, // clique sandwiches and near misses
		{7, 64512, 8}, {7, 8, 7, 64512}, {1, 9, 2, 70000}, {23456}, {0}, // unallocated wins over loop and poisoning
	} {
		run(p)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30000; i++ {
		run(randomJudgePath(rng))
	}
	for r := Accepted; r <= Poisoned; r++ {
		if r != Unstable && seen[r] < 100 {
			t.Errorf("reason %v reached only %d times", r, seen[r])
		}
	}
	if emptied < 100 || unchanged < 100 || changed < 100 || longClean < 100 {
		t.Errorf("clean forms: %d emptied, %d unchanged, %d changed, %d longer than 32 hops; want plenty of each",
			emptied, unchanged, changed, longClean)
	}

	// The filters a Config leaves out stay off.
	for _, cfg := range []Config{{}, {Registry: cfg.Registry}, {Clique: cfg.Clique}, {RouteServers: cfg.RouteServers}} {
		j := newJudge(cfg)
		for i := 0; i < 2000; i++ {
			checkJudge(t, j, cfg, randomJudgePath(rng))
		}
	}
}

// TestJudgeLookupsCreateNoPages is the flag table's trust boundary: 65,536
// paths, one per table page, made of ASNs an MRT file could carry but the
// registry does not allocate, are all Unallocated, and judging them leaves
// the table at the pages the registry, clique and route servers filled — an
// input cannot make the judge allocate 64 Ki entries per number it invents.
func TestJudgeLookupsCreateNoPages(t *testing.T) {
	cfg := judgeTestConfig()
	j := newJudge(cfg)
	pages := j.flags.Pages()
	if pages != 1 { // every configured ASN is below 65536
		t.Fatalf("judgeTestConfig fills %d pages, want 1", pages)
	}
	for page := 0; page < 1<<16; page++ {
		a := asn.ASN(page<<16 | 50000) // slot 50000 is allocated on no page
		if reason, clean := j.judge(bgp.Path{7, a, a + 1, 8}); reason != Unallocated || clean != nil {
			t.Fatalf("path through %v: %v with clean form %v, want unallocated", a, reason, clean)
		}
	}
	if got := j.flags.Pages(); got != pages {
		t.Fatalf("judging grew the flag table from %d to %d pages", pages, got)
	}
}

// TestWarmJudgeAllocatesNothing pins the steady state: once the judge has
// met a path's ASNs and sized its buffers, judging a path that needs no
// cleaning allocates nothing, and neither does rejecting one.
func TestWarmJudgeAllocatesNothing(t *testing.T) {
	j := newJudge(judgeTestConfig())
	paths := []bgp.Path{
		{7, 8, 9, 10, 11, 12}, // accepted unchanged
		{7, 8, 9, 8},          // loop
		{1, 9, 2},             // poisoned
		{7, 64512, 8},         // unallocated
	}
	for _, p := range paths {
		j.judge(p)
	}
	for _, p := range paths {
		if n := testing.AllocsPerRun(100, func() { j.judge(p) }); n != 0 {
			t.Errorf("warm judge(%v) allocates %.0f objects", p, n)
		}
	}
}

// FuzzJudge feeds the judge what MRT decoding can: arbitrary ASN sequences.
// Same verdict and same clean form as the reference, no page created by a
// lookup (checkJudge), and never a panic.
func FuzzJudge(f *testing.F) {
	f.Add([]byte{7, 8, 9})
	f.Add([]byte{31, 7, 7, 32, 8, 33})
	f.Add([]byte{1, 9, 2, 7, 8, 7})
	f.Add([]byte{200, 7, 0})
	f.Add([]byte{7, 250, 8})
	f.Add([]byte{})
	cfg := judgeTestConfig()
	f.Fuzz(func(t *testing.T, raw []byte) {
		// One byte per hop keeps the fuzzer inside the small universe where
		// the rules interact: 0 is reserved, 1..40 hold the clique and the
		// route servers, 41..199 map into the wide allocated range (so long
		// loop-free paths exist), 200..239 is private use and the rest are
		// 4-byte ASNs on sixteen table pages the config never wrote.
		p := make(bgp.Path, len(raw))
		for i, b := range raw {
			switch a := asn.ASN(b); {
			case b <= 40:
				p[i] = a
			case b < 200:
				p[i] = 1000 + a
			case b < 240:
				p[i] = 64512 + a
			default:
				p[i] = a << 24
			}
		}
		j := newJudge(cfg)
		checkJudge(t, j, cfg, p)
		checkJudge(t, j, cfg, p) // and again on warm buffers
	})
}
