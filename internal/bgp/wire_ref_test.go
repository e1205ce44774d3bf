package bgp

// The reference marshaler below is the pre-optimization bytes.Buffer +
// binary.Write implementation, retained as an executable specification of
// the wire format. TestAppendWireMatchesReference requires the
// zero-allocation append codec to reproduce them byte for byte on
// randomized inputs, the same retained-reference discipline the dense
// metric kernels follow.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"testing"

	"countryrank/internal/asn"
)

func marshalAttrsRef(a AttrSet) ([]byte, error) {
	var b bytes.Buffer
	b.Write([]byte{flagTransit, attrOrigin, 1, byte(a.Origin)})
	var pb bytes.Buffer
	for _, seg := range a.ASPath {
		if len(seg.ASNs) > 255 {
			return nil, errors.New("bgp: segment longer than 255 ASNs")
		}
		pb.WriteByte(seg.Type)
		pb.WriteByte(byte(len(seg.ASNs)))
		for _, x := range seg.ASNs {
			binary.Write(&pb, binary.BigEndian, uint32(x))
		}
	}
	writeAttrRef(&b, flagTransit, attrASPath, pb.Bytes())
	if a.NextHop.IsValid() {
		if !a.NextHop.Is4() {
			return nil, errors.New("bgp: AttrSet next hop must be IPv4")
		}
		nh := a.NextHop.As4()
		writeAttrRef(&b, flagTransit, attrNextHop, nh[:])
	}
	return b.Bytes(), nil
}

func writeAttrRef(b *bytes.Buffer, flags, code uint8, val []byte) {
	if len(val) > 255 {
		flags |= flagExtLen
	}
	b.WriteByte(flags)
	b.WriteByte(code)
	if flags&flagExtLen != 0 {
		binary.Write(b, binary.BigEndian, uint16(len(val)))
	} else {
		b.WriteByte(byte(len(val)))
	}
	b.Write(val)
}

func randPath(rng *rand.Rand, n int) Path {
	p := make(Path, n)
	for i := range p {
		p[i] = asn.ASN(1 + rng.Intn(1<<18))
	}
	return p
}

func TestAppendWireMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a := AttrSet{
			Origin: OriginCode(rng.Intn(3)),
			ASPath: seq(randPath(rng, rng.Intn(8))),
		}
		if rng.Intn(2) == 0 {
			a.NextHop = netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(256))})
		}
		if rng.Intn(8) == 0 { // exercise the extended-length header
			a.ASPath = append(a.ASPath, Segment{Type: SegmentSet, ASNs: randPath(rng, 100)})
		}
		want, werr := marshalAttrsRef(a)
		got, gerr := a.Marshal()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("attrs %d: error mismatch %v vs %v", i, werr, gerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("attrs %d: wire mismatch\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestAttrDecoderMatchesUnmarshal checks the reusing decoder against the
// allocating one, including reuse across Reset cycles.
func TestAttrDecoderMatchesUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var dec AttrDecoder
	for i := 0; i < 500; i++ {
		dec.Reset()
		// Several sets per reset cycle, held simultaneously like the RIB
		// scanner holds a record's entries.
		type pair struct {
			wire []byte
			want AttrSet
		}
		var batch []pair
		for j := 0; j < 1+rng.Intn(5); j++ {
			a := AttrSet{
				Origin:  OriginCode(rng.Intn(3)),
				ASPath:  seq(randPath(rng, 1+rng.Intn(7))),
				NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(256))}),
			}
			wire, err := a.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, pair{wire, a})
		}
		var got []AttrSet
		for _, p := range batch {
			g, err := dec.Decode(p.wire)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			got = append(got, g)
		}
		for k, p := range batch {
			ref, err := UnmarshalAttrs(p.wire)
			if err != nil {
				t.Fatal(err)
			}
			g := got[k]
			if g.Origin != ref.Origin || g.NextHop != ref.NextHop ||
				!g.ASPath.AppendFlat(nil).Equal(ref.ASPath.AppendFlat(nil)) {
				t.Fatalf("cycle %d set %d: %+v vs %+v", i, k, g, ref)
			}
		}
	}
}

func TestInterner(t *testing.T) {
	it := NewInterner(4, 0)
	p1 := Path{3356, 1299, 64500}
	p2 := Path{3356, 1299, 64501}
	i1 := it.Intern(p1)
	i2 := it.Intern(p2)
	if i1 == i2 {
		t.Fatal("distinct paths interned to one index")
	}
	if got := it.Intern(append(Path(nil), p1...)); got != i1 {
		t.Fatalf("equal path re-interned: %d vs %d", got, i1)
	}
	// Intern copies: the caller may overwrite its slice afterwards.
	mine := Path{7, 8}
	i3 := it.Intern(mine)
	mine[0], mine[1] = 9, 9
	if got := it.paths.Path(i3); !got.Equal(Path{7, 8}) {
		t.Fatalf("interned path changed with the caller's slice: %v", got)
	}
	if got := it.Intern(Path{7, 8}); got != i3 {
		t.Fatalf("path re-interned after the caller's overwrite: %d vs %d", got, i3)
	}
	// Empty and nil paths intern to the same entry.
	e1 := it.Intern(Path{})
	e2 := it.Intern(nil)
	if e1 != e2 {
		t.Fatalf("empty-path indexes differ: %d vs %d", e1, e2)
	}
	// Enough paths to grow the table past its first size keep their
	// numbers.
	var more []int32
	for a := range asn.ASN(100) {
		more = append(more, it.Intern(Path{a, a + 1, 65000}))
	}
	for a := range asn.ASN(100) {
		if got := it.Intern(Path{a, a + 1, 65000}); got != more[a] {
			t.Fatalf("after growth, path %d re-interned as %d, want %d", a, got, more[a])
		}
	}
	ps := it.Arena()
	if ps.NumPaths() != 4+100 || !ps.Path(i1).Equal(p1) || !ps.Path(i2).Equal(p2) || !ps.Path(i3).Equal(Path{7, 8}) || len(ps.Path(e1)) != 0 {
		t.Fatalf("Arena() = %v, %v", ps.Hops, ps.Off)
	}
}
