package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"countryrank/internal/asn"
)

// Open is a decoded BGP OPEN message (RFC 4271 §4.2). Of its capabilities
// only the 4-octet AS number (RFC 6793) is kept.
type Open struct {
	Version  uint8
	AS       asn.ASN // the true (possibly 4-byte) ASN
	HoldTime uint16
	BGPID    netip.Addr
}

// capFourOctetAS is the capability code of a 4-octet AS number.
const capFourOctetAS = 65

// UnmarshalOpen decodes an OPEN message body (without the common header).
func UnmarshalOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, errors.New("bgp: truncated OPEN")
	}
	o := &Open{
		Version:  body[0],
		AS:       asn.ASN(binary.BigEndian.Uint16(body[1:3])),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		BGPID:    netip.AddrFrom4([4]byte(body[5:9])),
	}
	optLen := int(body[9])
	opts := body[10:]
	if len(opts) < optLen {
		return nil, errors.New("bgp: truncated OPEN optional parameters")
	}
	opts = opts[:optLen]
	for len(opts) > 0 {
		if len(opts) < 2 {
			return nil, errors.New("bgp: truncated optional parameter")
		}
		ptype, plen := opts[0], int(opts[1])
		if len(opts) < 2+plen {
			return nil, errors.New("bgp: truncated optional parameter body")
		}
		if ptype == 2 { // capabilities
			caps := opts[2 : 2+plen]
			for len(caps) > 0 {
				if len(caps) < 2 {
					return nil, errors.New("bgp: truncated capability")
				}
				code, clen := caps[0], int(caps[1])
				if len(caps) < 2+clen {
					return nil, errors.New("bgp: truncated capability body")
				}
				if code == capFourOctetAS && clen == 4 {
					o.AS = asn.ASN(binary.BigEndian.Uint32(caps[2:6]))
				}
				caps = caps[2+clen:]
			}
		}
		opts = opts[2+plen:]
	}
	return o, nil
}

// Notification is a BGP NOTIFICATION (RFC 4271 §4.5).
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// NotifMessageHeaderError is the NOTIFICATION code ReadMessage reports a
// malformed header with (RFC 4271 §6.1).
const NotifMessageHeaderError = 1

// Error implements error, so ReadMessage can return a header error as the
// NOTIFICATION a speaker would send.
func (n *Notification) Error() string {
	return fmt.Sprintf("bgp: notification code %d subcode %d", n.Code, n.Subcode)
}

// UnmarshalNotification decodes a NOTIFICATION body.
func UnmarshalNotification(body []byte) (*Notification, error) {
	if len(body) < 2 {
		return nil, errors.New("bgp: truncated NOTIFICATION")
	}
	return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
}

// Message is a decoded BGP message of any type.
type Message struct {
	Type         byte
	Open         *Open
	Update       *Update
	Notification *Notification
}

// ReadMessage parses one complete BGP message from buf and returns it with
// the number of bytes consumed, or (nil, 0, nil) if buf does not yet hold a
// complete message.
func ReadMessage(buf []byte) (*Message, int, error) {
	if len(buf) < 19 {
		return nil, 0, nil
	}
	for i := 0; i < 16; i++ {
		if buf[i] != 0xFF {
			return nil, 0, &Notification{Code: NotifMessageHeaderError, Subcode: 1}
		}
	}
	length := int(binary.BigEndian.Uint16(buf[16:18]))
	if length < 19 || length > 4096 {
		return nil, 0, &Notification{Code: NotifMessageHeaderError, Subcode: 2}
	}
	if len(buf) < length {
		return nil, 0, nil
	}
	msgType := buf[18]
	body := buf[19:length]
	m := &Message{Type: msgType}
	var err error
	switch msgType {
	case TypeOpen:
		m.Open, err = UnmarshalOpen(body)
	case TypeUpdate:
		m.Update, err = UnmarshalUpdate(buf[:length])
	case TypeKeepalive:
		if len(body) != 0 {
			err = &Notification{Code: NotifMessageHeaderError, Subcode: 2}
		}
	case TypeNotification:
		m.Notification, err = UnmarshalNotification(body)
	default:
		err = &Notification{Code: NotifMessageHeaderError, Subcode: 3}
	}
	if err != nil {
		return nil, 0, err
	}
	return m, length, nil
}
