package bgp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"countryrank/internal/asn"
)

// Message types (RFC 4271 §4.1).
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// OriginCode is the value of the ORIGIN attribute (RFC 4271 §5.1.1).
type OriginCode uint8

// OriginIGP is the ORIGIN the MRT export gives every route.
const OriginIGP OriginCode = 0

// Path attribute type codes used by the codec.
const (
	attrOrigin    = 1
	attrASPath    = 2
	attrNextHop   = 3
	attrMED       = 4
	attrMPReach   = 14
	attrMPUnreach = 15
	flagOptional  = 0x80
	flagTransit   = 0x40
	flagExtLen    = 0x10
)

// AS_PATH segment types (RFC 4271 §4.3).
const (
	SegmentSet      = 1
	SegmentSequence = 2
)

// Segment is one AS_PATH segment.
type Segment struct {
	Type uint8
	ASNs []asn.ASN
}

// ASPath is the segmented AS_PATH attribute. Paths produced by our simulator
// are always a single AS_SEQUENCE, but the codec round-trips AS_SETs too.
type ASPath []Segment

// Flatten returns the path as a flat Path. AS_SET members are appended in
// order; callers that must treat sets specially should inspect segments.
func (ap ASPath) Flatten() Path {
	var out Path
	for _, s := range ap {
		out = append(out, s.ASNs...)
	}
	return out
}

// AppendFlat appends the path's ASNs to dst and returns it: Flatten for
// callers reusing a scratch path across records.
func (ap ASPath) AppendFlat(dst Path) Path {
	for _, s := range ap {
		dst = append(dst, s.ASNs...)
	}
	return dst
}

// SequencePath wraps a flat path into a single AS_SEQUENCE segment.
func SequencePath(p Path) ASPath {
	if len(p) == 0 {
		return nil
	}
	return ASPath{{Type: SegmentSequence, ASNs: p}}
}

// Update is a decoded BGP UPDATE message. The codec always encodes AS paths
// as 4-octet ASNs (an "AS4" speaker per RFC 6793).
type Update struct {
	Withdrawn []netip.Prefix
	Origin    OriginCode
	ASPath    ASPath
	NextHop   netip.Addr // IPv4 next hop; v6 NLRI uses MP_REACH
	MED       uint32     // 0 means absent
	HasMED    bool
	Announced []netip.Prefix // IPv4 NLRI
	// V6NextHop and V6Announced carry IPv6 reachability via MP_REACH_NLRI;
	// V6Withdrawn uses MP_UNREACH_NLRI.
	V6NextHop   netip.Addr
	V6Announced []netip.Prefix
	V6Withdrawn []netip.Prefix
}

var marker = bytes.Repeat([]byte{0xFF}, 16)

// Marshal encodes the UPDATE with the 19-byte BGP message header.
func (u *Update) Marshal() ([]byte, error) { return u.AppendWire(nil) }

// AppendWire appends the UPDATE's full wire encoding (19-byte header
// included) to dst and returns the extended slice. Callers feeding update
// streams reuse one buffer across messages to avoid per-message
// allocation.
func (u *Update) AppendWire(dst []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, marker...)
	dst = append(dst, 0, 0, TypeUpdate) // length patched below

	// Withdrawn routes, prefixed with their length.
	wdPos := len(dst)
	dst = append(dst, 0, 0)
	var err error
	if dst, err = appendNLRI(dst, u.Withdrawn); err != nil {
		return nil, fmt.Errorf("bgp: withdrawn: %w", err)
	}
	binary.BigEndian.PutUint16(dst[wdPos:], uint16(len(dst)-wdPos-2))

	// Path attributes, prefixed with their length.
	atPos := len(dst)
	dst = append(dst, 0, 0)
	if dst, err = u.appendAttrs(dst); err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(dst[atPos:], uint16(len(dst)-atPos-2))

	if dst, err = appendNLRI(dst, u.Announced); err != nil {
		return nil, fmt.Errorf("bgp: nlri: %w", err)
	}

	total := len(dst) - start
	if total > 4096 {
		return nil, fmt.Errorf("bgp: message length %d exceeds 4096", total)
	}
	binary.BigEndian.PutUint16(dst[start+16:], uint16(total))
	return dst, nil
}

func (u *Update) appendAttrs(dst []byte) ([]byte, error) {
	var err error
	if len(u.V6Withdrawn) > 0 {
		// MP_UNREACH value: AFI + SAFI + NLRI.
		n, err := nlriWireSize(u.V6Withdrawn)
		if err != nil {
			return nil, fmt.Errorf("bgp: v6 withdrawn: %w", err)
		}
		if dst, err = appendAttrHeader(dst, flagOptional|flagExtLen, attrMPUnreach, 3+n); err != nil {
			return nil, err
		}
		dst = append(dst, 0, 2, 1) // AFI IPv6, SAFI unicast
		if dst, err = appendNLRI(dst, u.V6Withdrawn); err != nil {
			return nil, fmt.Errorf("bgp: v6 withdrawn: %w", err)
		}
	}
	hasReach := len(u.Announced) > 0 || len(u.V6Announced) > 0
	if hasReach {
		// ORIGIN
		dst = append(dst, flagTransit, attrOrigin, 1, byte(u.Origin))
		if dst, err = appendASPath(dst, u.ASPath); err != nil {
			return nil, err
		}
	}
	if len(u.Announced) > 0 {
		if !u.NextHop.Is4() {
			return nil, errors.New("bgp: IPv4 NLRI requires an IPv4 next hop")
		}
		nh := u.NextHop.As4()
		if dst, err = appendAttrHeader(dst, flagTransit, attrNextHop, 4); err != nil {
			return nil, err
		}
		dst = append(dst, nh[:]...)
	}
	if u.HasMED {
		if dst, err = appendAttrHeader(dst, flagOptional, attrMED, 4); err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint32(dst, u.MED)
	}
	if len(u.V6Announced) > 0 {
		if !u.V6NextHop.Is6() || u.V6NextHop.Is4() {
			return nil, errors.New("bgp: IPv6 NLRI requires an IPv6 next hop")
		}
		// MP_REACH value: AFI + SAFI + nh len + nh + reserved + NLRI.
		n, err := nlriWireSize(u.V6Announced)
		if err != nil {
			return nil, fmt.Errorf("bgp: v6 nlri: %w", err)
		}
		if dst, err = appendAttrHeader(dst, flagOptional|flagExtLen, attrMPReach, 21+n); err != nil {
			return nil, err
		}
		dst = append(dst, 0, 2, 1) // AFI IPv6, SAFI unicast
		nh := u.V6NextHop.As16()
		dst = append(dst, 16)
		dst = append(dst, nh[:]...)
		dst = append(dst, 0) // reserved
		if dst, err = appendNLRI(dst, u.V6Announced); err != nil {
			return nil, fmt.Errorf("bgp: v6 nlri: %w", err)
		}
	}
	return dst, nil
}

// UnmarshalUpdate decodes a full BGP message, which must be an UPDATE.
func UnmarshalUpdate(data []byte) (*Update, error) {
	if len(data) < 19 {
		return nil, errors.New("bgp: message shorter than header")
	}
	if !bytes.Equal(data[:16], marker) {
		return nil, errors.New("bgp: bad marker")
	}
	length := binary.BigEndian.Uint16(data[16:18])
	if int(length) != len(data) {
		return nil, fmt.Errorf("bgp: header length %d != buffer %d", length, len(data))
	}
	if data[18] != TypeUpdate {
		return nil, fmt.Errorf("bgp: message type %d is not UPDATE", data[18])
	}
	body := data[19:]
	u := &Update{}

	if len(body) < 2 {
		return nil, errors.New("bgp: truncated withdrawn length")
	}
	wdLen := int(binary.BigEndian.Uint16(body))
	body = body[2:]
	if len(body) < wdLen {
		return nil, errors.New("bgp: truncated withdrawn routes")
	}
	var err error
	u.Withdrawn, err = decodeNLRI(body[:wdLen], false)
	if err != nil {
		return nil, fmt.Errorf("bgp: withdrawn: %w", err)
	}
	body = body[wdLen:]

	if len(body) < 2 {
		return nil, errors.New("bgp: truncated attribute length")
	}
	attrLen := int(binary.BigEndian.Uint16(body))
	body = body[2:]
	if len(body) < attrLen {
		return nil, errors.New("bgp: truncated attributes")
	}
	if err := u.decodeAttrs(body[:attrLen]); err != nil {
		return nil, err
	}
	u.Announced, err = decodeNLRI(body[attrLen:], false)
	if err != nil {
		return nil, fmt.Errorf("bgp: nlri: %w", err)
	}
	return u, nil
}

func (u *Update) decodeAttrs(b []byte) error {
	for len(b) > 0 {
		code, val, rest, err := nextAttr(b)
		if err != nil {
			return err
		}
		b = rest
		switch code {
		case attrOrigin:
			if len(val) != 1 {
				return errors.New("bgp: bad ORIGIN length")
			}
			u.Origin = OriginCode(val[0])
		case attrASPath:
			if u.ASPath, err = (*AttrDecoder)(nil).decodeASPath(val); err != nil {
				return err
			}
		case attrNextHop:
			if len(val) != 4 {
				return errors.New("bgp: bad NEXT_HOP length")
			}
			u.NextHop = netip.AddrFrom4([4]byte(val))
		case attrMED:
			if len(val) != 4 {
				return errors.New("bgp: bad MED length")
			}
			u.MED = binary.BigEndian.Uint32(val)
			u.HasMED = true
		case attrMPReach:
			if err := u.decodeMPReach(val); err != nil {
				return err
			}
		case attrMPUnreach:
			if err := u.decodeMPUnreach(val); err != nil {
				return err
			}
		default:
			// Unknown attributes are skipped; the pipeline only needs the above.
		}
	}
	return nil
}

func (u *Update) decodeMPReach(b []byte) error {
	if len(b) < 5 {
		return errors.New("bgp: truncated MP_REACH")
	}
	afi := binary.BigEndian.Uint16(b[:2])
	safi := b[2]
	nhLen := int(b[3])
	if afi != 2 || safi != 1 {
		return fmt.Errorf("bgp: unsupported AFI/SAFI %d/%d", afi, safi)
	}
	if nhLen != 16 || len(b) < 4+nhLen+1 {
		return errors.New("bgp: bad MP_REACH next hop")
	}
	u.V6NextHop = netip.AddrFrom16([16]byte(b[4 : 4+16]))
	rest := b[4+nhLen+1:]
	var err error
	u.V6Announced, err = decodeNLRI(rest, true)
	return err
}

func (u *Update) decodeMPUnreach(b []byte) error {
	if len(b) < 3 {
		return errors.New("bgp: truncated MP_UNREACH")
	}
	afi := binary.BigEndian.Uint16(b[:2])
	safi := b[2]
	if afi != 2 || safi != 1 {
		return fmt.Errorf("bgp: unsupported MP_UNREACH AFI/SAFI %d/%d", afi, safi)
	}
	var err error
	u.V6Withdrawn, err = decodeNLRI(b[3:], true)
	return err
}

// appendNLRI appends prefixes in the (length, truncated-address) wire form.
func appendNLRI(dst []byte, prefixes []netip.Prefix) ([]byte, error) {
	for _, p := range prefixes {
		if !p.IsValid() {
			return nil, fmt.Errorf("invalid prefix %v", p)
		}
		p = p.Masked()
		dst = append(dst, byte(p.Bits()))
		nbytes := (p.Bits() + 7) / 8
		if p.Addr().Is4() {
			a := p.Addr().As4()
			dst = append(dst, a[:nbytes]...)
		} else {
			a := p.Addr().As16()
			dst = append(dst, a[:nbytes]...)
		}
	}
	return dst, nil
}

// nlriWireSize returns the encoded size of the prefixes without encoding.
func nlriWireSize(prefixes []netip.Prefix) (int, error) {
	n := 0
	for _, p := range prefixes {
		if !p.IsValid() {
			return 0, fmt.Errorf("invalid prefix %v", p)
		}
		n += 1 + (p.Bits()+7)/8
	}
	return n, nil
}

func decodeNLRI(b []byte, v6 bool) ([]netip.Prefix, error) {
	var out []netip.Prefix
	for len(b) > 0 {
		bits := int(b[0])
		b = b[1:]
		max := 32
		if v6 {
			max = 128
		}
		if bits > max {
			return nil, fmt.Errorf("prefix length %d exceeds %d", bits, max)
		}
		nbytes := (bits + 7) / 8
		if len(b) < nbytes {
			return nil, errors.New("truncated NLRI")
		}
		if v6 {
			var a [16]byte
			copy(a[:], b[:nbytes])
			out = append(out, netip.PrefixFrom(netip.AddrFrom16(a), bits).Masked())
		} else {
			var a [4]byte
			copy(a[:], b[:nbytes])
			out = append(out, netip.PrefixFrom(netip.AddrFrom4(a), bits).Masked())
		}
		b = b[nbytes:]
	}
	return out, nil
}
