package core

import "math/rand"

// rngSource is math/rand's additive lagged Fibonacci source (Mitchell and
// Reeds), draw for draw what rand.NewSource(seed) yields, with a cheaper
// Seed. math/rand fills the 607-word register from 1,841 successive states
// of x ← 48271·x mod (2³¹−1), each computed with Schrage's divide; here the
// product is folded instead (2³¹−1 is a Mersenne prime), and the states are
// split into four chains the CPU overlaps, each started by a precomputed
// jump. The draws are the same, so the seed contract holds.
type rngSource struct {
	tap, feed int
	// vec is the register; its last word is the fourth chain's overrun,
	// written by Seed and never read by a draw.
	vec [rngLen + 1]uint64
}

const (
	rngLen    = 607
	rngTap    = 273
	m31       = 1<<31 - 1
	chainLen  = (rngLen + 3) / 4 // words per chain
	seedSkip  = 20               // states math/rand discards before word 0
	seedMul   = 48271
	zeroSeed  = 89482311 // math/rand's stand-in for a seed ≡ 0
	rngMask63 = 1<<63 - 1
)

var (
	// chainJump[g] is 48271^(20+3·chainLen·g) mod 2³¹−1: the multiplier
	// that takes a seed to the state just before chain g's first word.
	chainJump [4]uint64
	// cooked is math/rand's rngCooked table, the constants each register
	// word is XORed with.
	cooked [rngLen + 1]uint64
)

func init() {
	m := uint64(1)
	for range seedSkip {
		m = seedStep(m)
	}
	for g := range chainJump {
		chainJump[g] = m
		for range 3 * chainLen {
			m = seedStep(m)
		}
	}
	// Recover cooked from math/rand itself rather than copy the table. The
	// first 607 draws of NewSource(1) overwrite each register word exactly
	// once; undoing the additive steps in reverse gives the seeded register,
	// which is seed 1's words XOR cooked.
	src := rand.NewSource(1).(rand.Source64)
	var reg rngSource
	reg.tap, reg.feed = 0, rngLen-rngTap
	for range rngLen {
		reg.step()
		reg.vec[reg.feed] = src.Uint64()
	}
	for range rngLen {
		reg.vec[reg.feed] -= reg.vec[reg.tap]
		reg.tap, reg.feed = (reg.tap+1)%rngLen, (reg.feed+1)%rngLen
	}
	var plain rngSource // cooked is still zero: Seed leaves the bare words
	plain.Seed(1)
	for i := range rngLen {
		cooked[i] = reg.vec[i] ^ plain.vec[i]
	}
}

// seedStep is one seeding step, x·48271 mod 2³¹−1 for 0 < x < 2³¹−1.
// The fold leaves x below 2·(2³¹−1), and x−(2³¹−1) wraps above x unless
// x ≥ 2³¹−1, so the min is the one conditional subtraction.
func seedStep(x uint64) uint64 {
	x *= seedMul
	x = x&m31 + x>>31
	return min(x, x-m31)
}

// Seed fills the register as math/rand's Seed does: the same seed
// normalisation, the same words.
func (s *rngSource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	a, b, c, d := x*chainJump[0]%m31, x*chainJump[1]%m31, x*chainJump[2]%m31, x*chainJump[3]%m31
	for i := range chainLen {
		// A word packs three states as math/rand does: x₁<<40 ^ x₂<<20 ^ x₃.
		a1, b1, c1, d1 := seedStep(a), seedStep(b), seedStep(c), seedStep(d)
		a2, b2, c2, d2 := seedStep(a1), seedStep(b1), seedStep(c1), seedStep(d1)
		a, b, c, d = seedStep(a2), seedStep(b2), seedStep(c2), seedStep(d2)
		s.vec[i] = a1<<40 ^ a2<<20 ^ a ^ cooked[i]
		s.vec[chainLen+i] = b1<<40 ^ b2<<20 ^ b ^ cooked[chainLen+i]
		s.vec[2*chainLen+i] = c1<<40 ^ c2<<20 ^ c ^ cooked[2*chainLen+i]
		s.vec[3*chainLen+i] = d1<<40 ^ d2<<20 ^ d ^ cooked[3*chainLen+i]
	}
}

// step advances tap and feed and adds the tap word into the feed word.
func (s *rngSource) step() {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	s.vec[s.feed] += s.vec[s.tap]
}

func (s *rngSource) Uint64() uint64 {
	s.step()
	return s.vec[s.feed]
}

func (s *rngSource) Int63() int64 { return int64(s.Uint64() & rngMask63) }
