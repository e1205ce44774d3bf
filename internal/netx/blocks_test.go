package netx

import (
	"math/rand"
	"net/netip"
	"testing"
)

func TestSplitBlocksNoOverlapInput(t *testing.T) {
	in := []netip.Prefix{MustPrefix("10.0.0.0/8"), MustPrefix("11.0.0.0/8")}
	got := SplitBlocks(in)
	if len(got) != 2 {
		t.Fatalf("got %d blocks, want 2: %v", len(got), got)
	}
	for i, b := range got {
		if b.Prefix != in[i] || b.Owner != in[i] {
			t.Errorf("block %d = %+v, want identity", i, b)
		}
	}
}

func TestSplitBlocksCarving(t *testing.T) {
	// 10.0.0.0/22 with a more specific 10.0.1.0/24 carved out of it.
	got := SplitBlocks([]netip.Prefix{MustPrefix("10.0.0.0/22"), MustPrefix("10.0.1.0/24")})
	type want struct{ pfx, owner string }
	wants := []want{
		{"10.0.0.0/24", "10.0.0.0/22"},
		{"10.0.1.0/24", "10.0.1.0/24"},
		{"10.0.2.0/23", "10.0.0.0/22"},
	}
	if len(got) != len(wants) {
		t.Fatalf("got %d blocks %v, want %d", len(got), got, len(wants))
	}
	for i, w := range wants {
		if got[i].Prefix != MustPrefix(w.pfx) || got[i].Owner != MustPrefix(w.owner) {
			t.Errorf("block %d = %+v, want %s owned by %s", i, got[i], w.pfx, w.owner)
		}
	}
}

func TestSplitBlocksFullyCoveredParent(t *testing.T) {
	// The /23 is fully covered by its two /24s: it must contribute no blocks.
	got := SplitBlocks([]netip.Prefix{
		MustPrefix("10.0.0.0/23"), MustPrefix("10.0.0.0/24"), MustPrefix("10.0.1.0/24"),
	})
	if len(got) != 2 {
		t.Fatalf("got %v, want the two /24s only", got)
	}
	for _, b := range got {
		if b.Prefix != b.Owner || b.Prefix.Bits() != 24 {
			t.Errorf("unexpected block %+v", b)
		}
	}
}

func TestSplitBlocksDuplicates(t *testing.T) {
	got := SplitBlocks([]netip.Prefix{MustPrefix("10.0.0.0/8"), MustPrefix("10.0.0.0/8")})
	if len(got) != 1 {
		t.Fatalf("duplicates should coalesce, got %v", got)
	}
}

// TestSplitBlocksPartition verifies on random inputs that blocks are
// pairwise disjoint, each owned by its most specific covering input prefix,
// and that total block weight equals the weight of the union of inputs.
func TestSplitBlocksPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		var in []netip.Prefix
		for i := 0; i < 12; i++ {
			// Confine to 10/8 so overlaps are common.
			p := randomV4Prefix(rng, 10)
			b := p.Addr().As4()
			b[0] = 10
			in = append(in, netip.PrefixFrom(netip.AddrFrom4(b), p.Bits()).Masked())
		}
		blocks := SplitBlocks(in)
		for i := range blocks {
			for j := i + 1; j < len(blocks); j++ {
				if overlaps(blocks[i].Prefix, blocks[j].Prefix) {
					t.Fatalf("trial %d: overlapping blocks %v %v", trial, blocks[i], blocks[j])
				}
			}
			// Owner must cover the block and be the most specific input doing so.
			b := blocks[i]
			if !Covers(b.Owner, b.Prefix) {
				t.Fatalf("owner %v does not cover block %v", b.Owner, b.Prefix)
			}
			for _, p := range in {
				if Covers(p, b.Prefix) && p.Bits() > b.Owner.Bits() {
					t.Fatalf("block %v owned by %v but %v is more specific", b.Prefix, b.Owner, p)
				}
			}
		}
		// Weight conservation: sample addresses and check membership parity.
		var blockWeight uint64
		for _, b := range blocks {
			blockWeight += AddressWeight(b.Prefix)
		}
		unionWeight := unionWeight(in)
		if blockWeight != unionWeight {
			t.Fatalf("trial %d: block weight %d != union weight %d", trial, blockWeight, unionWeight)
		}
	}
}

// unionWeight computes the number of addresses covered by at least one input
// prefix, via SplitBlocks-independent carving on a sorted copy.
func unionWeight(in []netip.Prefix) uint64 {
	// Use the trie's disjoint set: insert all, then count weight of entries
	// not covered by a strictly shorter entry, minus double counting handled
	// by recursion. Simplest correct approach: merge intervals.
	type iv struct{ lo, hi uint64 } // [lo, hi)
	var ivs []iv
	for _, p := range in {
		a4 := p.Masked().Addr().As4()
		lo := uint64(a4[0])<<24 | uint64(a4[1])<<16 | uint64(a4[2])<<8 | uint64(a4[3])
		ivs = append(ivs, iv{lo, lo + AddressWeight(p)})
	}
	for i := 0; i < len(ivs); i++ {
		for j := i + 1; j < len(ivs); j++ {
			if ivs[j].lo < ivs[i].lo {
				ivs[i], ivs[j] = ivs[j], ivs[i]
			}
		}
	}
	var total, end uint64
	for _, v := range ivs {
		if v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}
