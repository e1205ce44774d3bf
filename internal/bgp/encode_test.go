package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"countryrank/internal/asn"
)

// Encoders and accessors only the tests use: the decoders' inputs are built
// with them, and nothing outside this package needs them since ReadMessage
// is reached from MRT BGP4MP records alone.

// The ORIGIN codes the MRT export never writes.
const (
	OriginEGP        OriginCode = 1
	OriginIncomplete OriginCode = 2
)

// Marshal encodes the attribute set in BGP path-attribute wire format.
func (a AttrSet) Marshal() ([]byte, error) { return a.AppendWire(nil) }

// PathAt returns the interned path with index i.
func (it *Interner) PathAt(i int32) Path { return it.paths[i] }

// Marshal encodes the OPEN with a multiprotocol IPv4 unicast and a 4-octet
// AS capability.
func (o *Open) Marshal() ([]byte, error) {
	if !o.BGPID.Is4() {
		return nil, errors.New("bgp: OPEN requires an IPv4 BGP identifier")
	}
	// my-AS field: AS_TRANS when the real ASN does not fit 16 bits.
	myAS := uint16(asn.ASTrans)
	if o.AS <= asn.Last16 {
		myAS = uint16(o.AS)
	}
	caps := []byte{1, 4, 0, 1, 0, 1, capFourOctetAS, 4}
	caps = binary.BigEndian.AppendUint32(caps, uint32(o.AS))
	optParams := append([]byte{2, byte(len(caps))}, caps...) // 2: capabilities

	version := o.Version
	if version == 0 {
		version = 4
	}
	body := []byte{version}
	body = binary.BigEndian.AppendUint16(body, myAS)
	body = binary.BigEndian.AppendUint16(body, o.HoldTime)
	id := o.BGPID.As4()
	body = append(body, id[:]...)
	body = append(body, byte(len(optParams)))
	body = append(body, optParams...)
	return wrapMessage(TypeOpen, body)
}

// Marshal encodes the NOTIFICATION.
func (n *Notification) Marshal() ([]byte, error) {
	return wrapMessage(TypeNotification, append([]byte{n.Code, n.Subcode}, n.Data...))
}

// MarshalKeepalive encodes a KEEPALIVE message.
func MarshalKeepalive() []byte {
	out, _ := wrapMessage(TypeKeepalive, nil)
	return out
}

// wrapMessage prepends the 19-byte header.
func wrapMessage(msgType byte, body []byte) ([]byte, error) {
	total := 19 + len(body)
	if total > 4096 {
		return nil, fmt.Errorf("bgp: message length %d exceeds 4096", total)
	}
	out := append([]byte(nil), marker...)
	out = binary.BigEndian.AppendUint16(out, uint16(total))
	out = append(out, msgType)
	return append(out, body...), nil
}
