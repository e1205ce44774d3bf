package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"

	"countryrank/internal/asn"
)

// AttrSet is the subset of BGP path attributes an MRT RIB entry carries for
// our pipeline: ORIGIN, AS_PATH, and NEXT_HOP. It reuses the UPDATE codec's
// attribute wire format so MRT dumps and live messages agree byte-for-byte.
type AttrSet struct {
	Origin  OriginCode
	ASPath  ASPath
	NextHop netip.Addr // optional; zero Addr means absent
}

// Marshal encodes the attribute set in BGP path-attribute wire format with
// 4-octet AS numbers.
func (a AttrSet) Marshal() ([]byte, error) { return a.AppendWire(nil) }

// AppendWire appends the attribute set's wire encoding to dst and returns
// the extended slice; this is the allocation-free path the MRT writer uses.
func (a AttrSet) AppendWire(dst []byte) ([]byte, error) {
	dst = append(dst, flagTransit, attrOrigin, 1, byte(a.Origin))
	var err error
	if dst, err = appendASPath(dst, a.ASPath); err != nil {
		return nil, err
	}
	if a.NextHop.IsValid() {
		if !a.NextHop.Is4() {
			return nil, errors.New("bgp: AttrSet next hop must be IPv4")
		}
		nh := a.NextHop.As4()
		if dst, err = appendAttrHeader(dst, flagTransit, attrNextHop, 4); err != nil {
			return nil, err
		}
		dst = append(dst, nh[:]...)
	}
	return dst, nil
}

// appendAttrHeader appends a path-attribute header for a value of n bytes.
// The extended-length bit is honored if already set in flags and forced for
// values over 255 bytes.
func appendAttrHeader(dst []byte, flags, code uint8, n int) ([]byte, error) {
	if n > 0xFFFF {
		return nil, fmt.Errorf("bgp: attribute %d value %d bytes exceeds uint16", code, n)
	}
	if n > 255 {
		flags |= flagExtLen
	}
	dst = append(dst, flags, code)
	if flags&flagExtLen != 0 {
		return binary.BigEndian.AppendUint16(dst, uint16(n)), nil
	}
	return append(dst, byte(n)), nil
}

// appendASPath appends the AS_PATH attribute with 4-octet ASNs. The value
// length is computable up front, so the attribute header is emitted first
// and the segments appended directly after it.
func appendASPath(dst []byte, ap ASPath) ([]byte, error) {
	plen := 0
	for _, seg := range ap {
		if len(seg.ASNs) > 255 {
			return nil, errors.New("bgp: segment longer than 255 ASNs")
		}
		plen += 2 + 4*len(seg.ASNs)
	}
	dst, err := appendAttrHeader(dst, flagTransit, attrASPath, plen)
	if err != nil {
		return nil, err
	}
	for _, seg := range ap {
		dst = append(dst, seg.Type, byte(len(seg.ASNs)))
		for _, x := range seg.ASNs {
			dst = binary.BigEndian.AppendUint32(dst, uint32(x))
		}
	}
	return dst, nil
}

// nextAttr splits the first path attribute off b: its type code, its value
// and what follows it.
func nextAttr(b []byte) (code uint8, val, rest []byte, err error) {
	if len(b) < 3 {
		return 0, nil, nil, errors.New("bgp: truncated attribute header")
	}
	flags, code := b[0], b[1]
	var alen int
	if flags&flagExtLen != 0 {
		if len(b) < 4 {
			return 0, nil, nil, errors.New("bgp: truncated extended length")
		}
		alen = int(binary.BigEndian.Uint16(b[2:4]))
		b = b[4:]
	} else {
		alen = int(b[2])
		b = b[3:]
	}
	if len(b) < alen {
		return 0, nil, nil, fmt.Errorf("bgp: attribute %d truncated", code)
	}
	return code, b[:alen], b[alen:], nil
}

// UnmarshalAttrs decodes a path-attribute byte string produced by
// AttrSet.Marshal (or any BGP speaker emitting the same three attributes).
// Unknown attributes are skipped.
func UnmarshalAttrs(b []byte) (AttrSet, error) { return (*AttrDecoder)(nil).Decode(b) }

// AttrDecoder decodes attribute sets into reusable backing arrays, the
// allocation-free counterpart of UnmarshalAttrs for RIB scanning. Attribute
// sets decoded by the same AttrDecoder share its storage: each is valid
// only until the next Reset (the mrt scanner resets once per record, so
// entries within a record may be held together). A nil *AttrDecoder decodes
// into storage of the result's own.
type AttrDecoder struct {
	segs []Segment
	asns []asn.ASN
}

// Reset recycles the decoder's backing arrays. Attribute sets decoded
// before the call must no longer be used.
func (d *AttrDecoder) Reset() {
	d.segs = d.segs[:0]
	d.asns = d.asns[:0]
}

// Decode decodes one attribute set; the result aliases the decoder's
// buffers until the next Reset.
func (d *AttrDecoder) Decode(b []byte) (AttrSet, error) {
	var a AttrSet
	for len(b) > 0 {
		code, val, rest, err := nextAttr(b)
		if err != nil {
			return a, err
		}
		b = rest
		switch code {
		case attrOrigin:
			if len(val) != 1 {
				return a, errors.New("bgp: bad ORIGIN length")
			}
			a.Origin = OriginCode(val[0])
		case attrASPath:
			if a.ASPath, err = d.decodeASPath(val); err != nil {
				return a, err
			}
		case attrNextHop:
			if len(val) != 4 {
				return a, errors.New("bgp: bad NEXT_HOP length")
			}
			a.NextHop = netip.AddrFrom4([4]byte(val))
		}
	}
	return a, nil
}

// decodeASPath decodes an AS_PATH value, appending into the decoder's arenas
// (fresh ones for a nil decoder). If an append reallocates an arena,
// previously returned slices keep pointing at the old array — still correct,
// just retired from reuse.
func (d *AttrDecoder) decodeASPath(b []byte) (ASPath, error) {
	if d == nil {
		d = new(AttrDecoder)
	}
	segStart := len(d.segs)
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, errors.New("bgp: truncated AS_PATH segment header")
		}
		segType, n := b[0], int(b[1])
		b = b[2:]
		if segType != SegmentSet && segType != SegmentSequence {
			return nil, fmt.Errorf("bgp: unknown AS_PATH segment type %d", segType)
		}
		if len(b) < 4*n {
			return nil, errors.New("bgp: truncated AS_PATH segment")
		}
		asnStart := len(d.asns)
		d.asns = slices.Grow(d.asns, n)
		for i := 0; i < n; i++ {
			d.asns = append(d.asns, asn.ASN(binary.BigEndian.Uint32(b[4*i:])))
		}
		b = b[4*n:]
		d.segs = append(d.segs, Segment{
			Type: segType,
			ASNs: d.asns[asnStart:len(d.asns):len(d.asns)],
		})
	}
	return d.segs[segStart:len(d.segs):len(d.segs)], nil
}

// PathOf is a convenience returning the flattened AS path of the set.
func (a AttrSet) PathOf() Path { return a.ASPath.Flatten() }
