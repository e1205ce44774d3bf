package bgp

import (
	"math/rand"
	"testing"

	"countryrank/internal/asn"
)

func path(asns ...uint32) Path {
	p := make(Path, len(asns))
	for i, a := range asns {
		p[i] = asn.ASN(a)
	}
	return p
}

func TestPathEnds(t *testing.T) {
	p := path(3356, 1299, 1221)
	if o, ok := p.Origin(); !ok || o != 1221 {
		t.Errorf("Origin = %v, %v", o, ok)
	}
	var empty Path
	if _, ok := empty.Origin(); ok {
		t.Error("empty path has no origin")
	}
}

func TestContainsEqual(t *testing.T) {
	p := path(1, 2, 3)
	if !p.Contains(2) || p.Contains(9) {
		t.Error("Contains wrong")
	}
	if !p.Equal(path(1, 2, 3)) || p.Equal(path(1, 2)) || p.Equal(path(1, 2, 4)) {
		t.Error("Equal wrong")
	}
}

func TestHasNonAdjacentLoop(t *testing.T) {
	cases := []struct {
		p    Path
		want bool
	}{
		{path(1, 2, 3), false},
		{path(1, 1, 2, 2), false}, // prepending is not a loop
		{path(1, 2, 1), true},     // A C A
		{path(1, 2, 2, 1), true},  // loop with prepending inside
		{path(5, 4, 5, 4), true},
		{nil, false},
		{path(9), false},
	}
	for _, c := range cases {
		if got := c.p.HasNonAdjacentLoop(); got != c.want {
			t.Errorf("HasNonAdjacentLoop(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestHasNonAdjacentLoopBothRegimes checks the allocation-free pairwise scan
// against the set-based one on random paths (few distinct ASNs, so loops and
// prepending runs are common) on both sides of the length threshold, and pins
// the short regime at zero allocations.
func TestHasNonAdjacentLoopBothRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		p := make(Path, rng.Intn(70))
		for j := range p {
			p[j] = asn.ASN(1 + rng.Intn(90))
			if j > 0 && rng.Intn(4) == 0 {
				p[j] = p[j-1]
			}
		}
		if got, want := p.HasNonAdjacentLoop(), p.hasNonAdjacentLoopSet(); got != want {
			t.Fatalf("HasNonAdjacentLoop(%v) = %v, set-based check says %v", p, got, want)
		}
	}
	long := make(Path, 255)
	for j := range long {
		long[j] = asn.ASN(j/2 + 1) // prepending only
	}
	if long.HasNonAdjacentLoop() {
		t.Error("255-hop prepended path reported as a loop")
	}
	long[254] = long[0]
	if !long.HasNonAdjacentLoop() {
		t.Error("255-hop path closing on its first hop not reported as a loop")
	}
	short := path(1, 2, 2, 3, 4, 5, 6, 7)
	if n := testing.AllocsPerRun(100, func() { short.HasNonAdjacentLoop() }); n != 0 {
		t.Errorf("HasNonAdjacentLoop allocates %.0f objects on an 8-hop path", n)
	}
}

func TestStringAndKey(t *testing.T) {
	p := path(3356, 1221)
	if p.String() != "AS3356 AS1221" {
		t.Errorf("String = %q", p.String())
	}
	if path(1, 2).Key() == path(1, 3).Key() {
		t.Error("distinct paths must have distinct keys")
	}
	if path(1, 2).Key() != path(1, 2).Key() {
		t.Error("equal paths must share keys")
	}
	// Key must distinguish [258] from [1,2] (no byte-boundary collisions).
	if path(258).Key() == path(1, 2).Key() {
		t.Error("Key collides across element boundaries")
	}
}

func TestKeyInjectiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seen := map[string]string{}
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(6)
		p := make(Path, n)
		for j := range p {
			p[j] = asn.ASN(rng.Intn(100000))
		}
		k := p.Key()
		if prev, ok := seen[k]; ok && prev != p.String() {
			t.Fatalf("key collision: %q vs %q", prev, p.String())
		}
		seen[k] = p.String()
	}
}

// TestPaths: a Paths returns every appended path whole and in order — the
// zero value and an empty path included — hands each out capped, so that a
// caller's append copies instead of overwriting the next path, and
// reallocates its arena O(log N) times over N appends, never when presized,
// and once when a producer reserves from the share of its paths appended.
func TestPaths(t *testing.T) {
	const n = 1 << 15
	many := make([]Path, n)
	for i := range many {
		many[i] = Path{asn.ASN(i), 3356, 64500}
	}
	for _, tc := range []struct {
		name    string
		grow    [2]int // paths and hops presized with Grow
		reserve bool   // Reserve before each append, as path i of len(paths)
		paths   []Path
		// maxReallocs bounds how often appending paths replaces Hops.
		maxReallocs int
	}{
		{name: "zero value"},
		{name: "empty path", paths: []Path{{}}, maxReallocs: 0},
		{name: "empty between", paths: []Path{{1, 2}, nil, {3}}, maxReallocs: 1},
		{name: "one path", paths: []Path{path(3356, 1299, 64500)}, maxReallocs: 1},
		// 3·2^15 hops from a first arena of 19: a doubling arena reallocates
		// at most log2(3·2^15) < 17 times; append's 1.25× steps would take
		// about twice as many.
		{name: "doubling", paths: many, maxReallocs: 17},
		{name: "presized", grow: [2]int{n, 3 * n}, paths: many, maxReallocs: 0},
		{name: "reserved", reserve: true, paths: many, maxReallocs: 1},
	} {
		var ps Paths
		if tc.grow != [2]int{} {
			ps.Grow(tc.grow[0], tc.grow[1])
		}
		reallocs, c := 0, cap(ps.Hops)
		for i, p := range tc.paths {
			if tc.reserve {
				ps.Reserve(1, len(p), int64(i+1), int64(len(tc.paths)))
			}
			if q := ps.AppendPath(p); q != int32(i) {
				t.Fatalf("%s: path %d numbered %d", tc.name, i, q)
			}
			if cap(ps.Hops) != c {
				reallocs, c = reallocs+1, cap(ps.Hops)
			}
		}
		if ps.NumPaths() != len(tc.paths) {
			t.Fatalf("%s: NumPaths() = %d, want %d", tc.name, ps.NumPaths(), len(tc.paths))
		}
		if reallocs > tc.maxReallocs {
			t.Errorf("%s: %d appends reallocated Hops %d times, want at most %d", tc.name, len(tc.paths), reallocs, tc.maxReallocs)
		}
		for i, p := range tc.paths {
			got := ps.Path(int32(i))
			if !got.Equal(p) || cap(got) != len(got) {
				t.Fatalf("%s: Path(%d) = %v (cap %d), want %v capped", tc.name, i, got, cap(got), p)
			}
			if i+1 < len(tc.paths) {
				_ = append(got, 65535)
				if next := ps.Path(int32(i + 1)); !next.Equal(tc.paths[i+1]) {
					t.Fatalf("%s: appending to Path(%d) changed Path(%d) to %v", tc.name, i, i+1, next)
				}
			}
		}
		ps.Reset()
		if ps.NumPaths() != 0 || len(ps.Hops) != 0 {
			t.Errorf("%s: Reset left %d paths, %d hops", tc.name, ps.NumPaths(), len(ps.Hops))
		}
	}
}
