package netx

import (
	"math/rand"
	"net/netip"
	"testing"
)

// TestSplitBlocksLookupAgreement verifies that for random addresses, the
// block owner equals the longest announced prefix containing the address.
func TestSplitBlocksLookupAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		var pfxs []netip.Prefix
		var tr Trie[struct{}]
		for i := 0; i < 10; i++ {
			p := randomV4Prefix(rng, 10)
			b := p.Addr().As4()
			b[0] = 10
			p = netip.PrefixFrom(netip.AddrFrom4(b), p.Bits()).Masked()
			pfxs = append(pfxs, p)
			tr.Insert(p, struct{}{})
		}
		blocks := SplitBlocks(pfxs)
		var blockTrie Trie[netip.Prefix]
		for _, blk := range blocks {
			blockTrie.Insert(blk.Prefix, blk.Owner)
		}
		for q := 0; q < 300; q++ {
			a := rng.Uint32()
			addr := netip.AddrFrom4([4]byte{10, byte(a >> 16), byte(a >> 8), byte(a)})
			wantPfx, _, inAnnounced := tr.Lookup(addr)
			_, owner, inBlocks := blockTrie.Lookup(addr)
			if inAnnounced != inBlocks {
				t.Fatalf("coverage disagreement at %v: announced=%v blocks=%v", addr, inAnnounced, inBlocks)
			}
			if inAnnounced && owner != wantPfx {
				t.Fatalf("owner of %v = %v, want longest match %v", addr, owner, wantPfx)
			}
		}
	}
}
