package bgp

import (
	"testing"
	"testing/quick"

	"countryrank/internal/asn"
)

// fromBytes builds a short path from fuzz bytes, with a small alphabet so
// duplicates are common.
func fromBytes(bs []byte) Path {
	p := make(Path, 0, len(bs))
	for _, b := range bs {
		p = append(p, asn.ASN(b%7)+1)
	}
	return p
}

func TestLoopInvariantUnderPrepending(t *testing.T) {
	// Expanding any hop into a run of itself must not change loop-ness.
	f := func(bs []byte, at, times uint8) bool {
		p := fromBytes(bs)
		if len(p) == 0 {
			return true
		}
		i := int(at) % len(p)
		n := int(times%3) + 1
		var exp Path
		exp = append(exp, p[:i+1]...)
		for k := 0; k < n; k++ {
			exp = append(exp, p[i])
		}
		exp = append(exp, p[i+1:]...)
		return exp.HasNonAdjacentLoop() == p.HasNonAdjacentLoop()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarshalRoundTripQuick(t *testing.T) {
	f := func(bs []byte) bool {
		p := fromBytes(bs)
		if len(p) == 0 || len(p) > 200 {
			return true
		}
		a := AttrSet{Origin: OriginIGP, ASPath: seq(p)}
		raw, err := a.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalAttrs(raw)
		return err == nil && got.ASPath.AppendFlat(nil).Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
