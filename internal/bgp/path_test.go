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
	if f, ok := p.First(); !ok || f != 3356 {
		t.Errorf("First = %v, %v", f, ok)
	}
	var empty Path
	if _, ok := empty.Origin(); ok {
		t.Error("empty path has no origin")
	}
	if _, ok := empty.First(); ok {
		t.Error("empty path has no first")
	}
}

func TestContainsEqualClone(t *testing.T) {
	p := path(1, 2, 3)
	if !p.Contains(2) || p.Contains(9) {
		t.Error("Contains wrong")
	}
	if !p.Equal(path(1, 2, 3)) || p.Equal(path(1, 2)) || p.Equal(path(1, 2, 4)) {
		t.Error("Equal wrong")
	}
	c := p.Clone()
	c[0] = 99
	if p[0] != 1 {
		t.Error("Clone must not alias")
	}
	if Path(nil).Clone() != nil {
		t.Error("Clone of nil is nil")
	}
}

func TestDedupAdjacent(t *testing.T) {
	cases := []struct{ in, want Path }{
		{path(1, 1, 2, 2, 2, 3), path(1, 2, 3)},
		{path(1, 2, 3), path(1, 2, 3)},
		{path(7, 7, 7, 7), path(7)},
		{path(1, 2, 1), path(1, 2, 1)}, // non-adjacent repeats preserved
		{nil, nil},
	}
	for _, c := range cases {
		if got := c.in.DedupAdjacent(); !got.Equal(c.want) {
			t.Errorf("DedupAdjacent(%v) = %v, want %v", c.in, got, c.want)
		}
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
