// Package mrt implements the MRT export format (RFC 6396) used by the
// RouteViews and RIPE RIS collector projects, restricted to the
// TABLE_DUMP_V2 records the ranking pipeline consumes: PEER_INDEX_TABLE
// plus RIB_IPV4_UNICAST / RIB_IPV6_UNICAST.
//
// The simulator serializes its per-collector RIBs through this package and
// the analysis pipeline parses them back, so the pipeline exercises the same
// interchange format it would face on real collector archives.
//
// The codec is allocation-free in steady state: the Writer assembles every
// record with direct big-endian puts into one reusable scratch buffer, and
// the Reader's Scan decodes into a reusable body buffer and reuses the
// decoded record and its entries across calls.
package mrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
)

// MRT record types and TABLE_DUMP_V2 subtypes (RFC 6396 §4, §4.3).
const (
	TypeTableDumpV2 = 13

	SubtypePeerIndexTable = 1
	SubtypeRIBIPv4Unicast = 2
	SubtypeRIBIPv6Unicast = 4
)

// Peer identifies one vantage point in a PEER_INDEX_TABLE.
type Peer struct {
	BGPID netip.Addr // collector-assigned router ID (IPv4)
	Addr  netip.Addr // the VP's peering address
	AS    asn.ASN
}

// RIBEntry is one VP's best route for a prefix.
type RIBEntry struct {
	PeerIndex    uint16
	OriginatedAt uint32 // seconds since epoch, as recorded by the collector
	Attrs        bgp.AttrSet
}

// RIBRecord is a RIB_IPV4_UNICAST / RIB_IPV6_UNICAST record: every VP's best
// route toward one prefix.
type RIBRecord struct {
	Seq     uint32
	Prefix  netip.Prefix
	Entries []RIBEntry
}

// recordHeaderLen is the fixed MRT record header: timestamp, type, subtype,
// body length.
const recordHeaderLen = 12

// Writer serializes TABLE_DUMP_V2 records. A PEER_INDEX_TABLE must be
// written before any RIB records, mirroring collector dump layout.
type Writer struct {
	w         *bufio.Writer
	timestamp uint32
	seq       uint32
	wrotePIT  bool
	// buf holds the record being assembled (header + body) and is reused
	// across records, so steady-state writes allocate nothing.
	buf []byte
}

// NewWriter returns a Writer stamping every record with the given time.
func NewWriter(w io.Writer, timestamp uint32) *Writer {
	return &Writer{w: bufio.NewWriter(w), timestamp: timestamp}
}

// beginRecord resets the scratch buffer, leaving room for the header.
func (w *Writer) beginRecord() {
	if cap(w.buf) < recordHeaderLen {
		w.buf = make([]byte, recordHeaderLen, 4096)
	}
	w.buf = w.buf[:recordHeaderLen]
}

// finishRecord stamps the header over the assembled body and flushes the
// record to the underlying writer.
func (w *Writer) finishRecord(typ, subtype uint16) error {
	body := len(w.buf) - recordHeaderLen
	if uint64(body) > math.MaxUint32 {
		return fmt.Errorf("mrt: record body %d bytes exceeds uint32", body)
	}
	binary.BigEndian.PutUint32(w.buf[0:], w.timestamp)
	binary.BigEndian.PutUint16(w.buf[4:], typ)
	binary.BigEndian.PutUint16(w.buf[6:], subtype)
	binary.BigEndian.PutUint32(w.buf[8:], uint32(body))
	_, err := w.w.Write(w.buf)
	return err
}

// WritePeerIndexTable writes the peer table. Peer order defines the
// PeerIndex values RIB entries refer to.
func (w *Writer) WritePeerIndexTable(collectorID netip.Addr, viewName string, peers []Peer) error {
	if w.wrotePIT {
		return errors.New("mrt: PEER_INDEX_TABLE already written")
	}
	if !collectorID.Is4() {
		return errors.New("mrt: collector ID must be IPv4")
	}
	if len(peers) > 0xFFFF {
		return fmt.Errorf("mrt: %d peers exceeds uint16", len(peers))
	}
	if len(viewName) > 0xFFFF {
		return fmt.Errorf("mrt: view name %d bytes exceeds uint16", len(viewName))
	}
	w.beginRecord()
	id := collectorID.As4()
	w.buf = append(w.buf, id[:]...)
	w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(len(viewName)))
	w.buf = append(w.buf, viewName...)
	w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(len(peers)))
	for _, p := range peers {
		if !p.BGPID.Is4() {
			return errors.New("mrt: peer BGP ID must be IPv4")
		}
		// Peer type: bit 0 = IPv6 address, bit 1 = 4-byte AS (always set).
		var pt byte = 0x02
		if p.Addr.Is6() && !p.Addr.Is4In6() {
			pt |= 0x01
		}
		w.buf = append(w.buf, pt)
		bid := p.BGPID.As4()
		w.buf = append(w.buf, bid[:]...)
		if pt&0x01 != 0 {
			a := p.Addr.As16()
			w.buf = append(w.buf, a[:]...)
		} else {
			a := p.Addr.Unmap().As4()
			w.buf = append(w.buf, a[:]...)
		}
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(p.AS))
	}
	w.wrotePIT = true
	return w.finishRecord(TypeTableDumpV2, SubtypePeerIndexTable)
}

// WriteRIB writes one RIB record; sequence numbers are assigned in call
// order. The prefix family selects the subtype.
func (w *Writer) WriteRIB(prefix netip.Prefix, entries []RIBEntry) error {
	if !w.wrotePIT {
		return errors.New("mrt: PEER_INDEX_TABLE must precede RIB records")
	}
	if len(entries) > 0xFFFF {
		return fmt.Errorf("mrt: %d entries exceeds uint16", len(entries))
	}
	w.beginRecord()
	w.buf = binary.BigEndian.AppendUint32(w.buf, w.seq)
	w.seq++
	prefix = prefix.Masked()
	w.buf = append(w.buf, byte(prefix.Bits()))
	nbytes := (prefix.Bits() + 7) / 8
	subtype := uint16(SubtypeRIBIPv4Unicast)
	if prefix.Addr().Is4() {
		a := prefix.Addr().As4()
		w.buf = append(w.buf, a[:nbytes]...)
	} else {
		subtype = SubtypeRIBIPv6Unicast
		a := prefix.Addr().As16()
		w.buf = append(w.buf, a[:nbytes]...)
	}
	w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(len(entries)))
	for i := range entries {
		e := &entries[i]
		w.buf = binary.BigEndian.AppendUint16(w.buf, e.PeerIndex)
		w.buf = binary.BigEndian.AppendUint32(w.buf, e.OriginatedAt)
		// Attribute length back-patched once the attrs are appended.
		lenPos := len(w.buf)
		w.buf = append(w.buf, 0, 0)
		var err error
		if w.buf, err = e.Attrs.AppendWire(w.buf); err != nil {
			return fmt.Errorf("mrt: entry attrs: %w", err)
		}
		alen := len(w.buf) - lenPos - 2
		if alen > 0xFFFF {
			return errors.New("mrt: attributes exceed uint16 length")
		}
		binary.BigEndian.PutUint16(w.buf[lenPos:], uint16(alen))
	}
	return w.finishRecord(TypeTableDumpV2, subtype)
}

// Flush writes any buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Record is a decoded MRT record: exactly one of PeerIndexTable and RIB is
// non-nil.
type Record struct {
	Timestamp      uint32
	PeerIndexTable *PeerIndexTable
	RIB            *RIBRecord
}

// PeerIndexTable is the decoded PEER_INDEX_TABLE.
type PeerIndexTable struct {
	CollectorID netip.Addr
	ViewName    string
	Peers       []Peer
}

// Reader parses TABLE_DUMP_V2 records from a stream.
type Reader struct {
	r      *bufio.Reader
	sawPIT bool
	hdr    [recordHeaderLen]byte
	body   []byte // reusable record body buffer

	// Scan-mode storage, reused across Scan calls.
	scanRec Record
	scanPIT PeerIndexTable
	scanRIB RIBRecord
	dec     bgp.AttrDecoder
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Scan returns the next record, or io.EOF at end of stream. Records of
// types other than TABLE_DUMP_V2 are rejected. The returned record, its
// peer table or RIB entries, and every attribute set within them are owned
// by the Reader and valid only until the following call. Callers must copy
// whatever they keep.
func (r *Reader) Scan() (*Record, error) { return r.next(true) }

// next decodes the next record; with reuse it decodes into the Reader's
// storage (Scan), without into fresh allocations. Only a stream that ends
// cleanly between records yields the bare io.EOF; any other short read or
// malformed record is an error, and the stream is not read past it.
func (r *Reader) next(reuse bool) (*Record, error) {
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("mrt: header: %w", err)
	}
	ts := binary.BigEndian.Uint32(hdr[0:])
	typ := binary.BigEndian.Uint16(hdr[4:])
	sub := binary.BigEndian.Uint16(hdr[6:])
	length := binary.BigEndian.Uint32(hdr[8:])
	if typ != TypeTableDumpV2 {
		return nil, fmt.Errorf("mrt: unsupported record type %d", typ)
	}
	if length > 1<<26 {
		return nil, fmt.Errorf("mrt: implausible record length %d", length)
	}
	if uint32(cap(r.body)) < length {
		r.body = make([]byte, length)
	}
	body := r.body[:length]
	if _, err := io.ReadFull(r.r, body); err != nil {
		return nil, fmt.Errorf("mrt: body: %w", err)
	}
	var rec *Record
	if reuse {
		rec = &r.scanRec
		*rec = Record{}
	} else {
		rec = &Record{}
	}
	rec.Timestamp = ts
	switch sub {
	case SubtypePeerIndexTable:
		if r.sawPIT {
			return nil, errors.New("mrt: duplicate PEER_INDEX_TABLE in stream")
		}
		var pit *PeerIndexTable
		if reuse {
			pit = &r.scanPIT
			pit.Peers = pit.Peers[:0]
		} else {
			pit = &PeerIndexTable{}
		}
		if err := decodePeerIndexTable(body, pit); err != nil {
			return nil, err
		}
		r.sawPIT = true
		rec.PeerIndexTable = pit
	case SubtypeRIBIPv4Unicast, SubtypeRIBIPv6Unicast:
		var rib *RIBRecord
		var dec *bgp.AttrDecoder
		if reuse {
			rib = &r.scanRIB
			rib.Entries = rib.Entries[:0]
			dec = &r.dec
			dec.Reset()
		} else {
			rib = &RIBRecord{}
		}
		if err := decodeRIB(body, sub == SubtypeRIBIPv6Unicast, rib, dec); err != nil {
			return nil, err
		}
		rec.RIB = rib
	default:
		return nil, fmt.Errorf("mrt: unsupported TABLE_DUMP_V2 subtype %d", sub)
	}
	return rec, nil
}

func decodePeerIndexTable(b []byte, pit *PeerIndexTable) error {
	if len(b) < 8 {
		return errors.New("mrt: truncated PEER_INDEX_TABLE")
	}
	pit.CollectorID = netip.AddrFrom4([4]byte(b[:4]))
	nameLen := int(binary.BigEndian.Uint16(b[4:6]))
	b = b[6:]
	if len(b) < nameLen+2 {
		return errors.New("mrt: truncated view name")
	}
	pit.ViewName = string(b[:nameLen])
	b = b[nameLen:]
	n := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	if pit.Peers == nil {
		pit.Peers = make([]Peer, 0, n)
	}
	for i := 0; i < n; i++ {
		if len(b) < 5 {
			return errors.New("mrt: truncated peer entry")
		}
		pt := b[0]
		var p Peer
		p.BGPID = netip.AddrFrom4([4]byte(b[1:5]))
		b = b[5:]
		if pt&0x01 != 0 {
			if len(b) < 16 {
				return errors.New("mrt: truncated v6 peer address")
			}
			p.Addr = netip.AddrFrom16([16]byte(b[:16]))
			b = b[16:]
		} else {
			if len(b) < 4 {
				return errors.New("mrt: truncated v4 peer address")
			}
			p.Addr = netip.AddrFrom4([4]byte(b[:4]))
			b = b[4:]
		}
		if pt&0x02 != 0 {
			if len(b) < 4 {
				return errors.New("mrt: truncated peer AS")
			}
			p.AS = asn.ASN(binary.BigEndian.Uint32(b[:4]))
			b = b[4:]
		} else {
			if len(b) < 2 {
				return errors.New("mrt: truncated peer AS")
			}
			p.AS = asn.ASN(binary.BigEndian.Uint16(b[:2]))
			b = b[2:]
		}
		pit.Peers = append(pit.Peers, p)
	}
	return nil
}

// decodeRIB parses a RIB record body into rib. With a non-nil dec the
// entries' attribute sets are decoded into the decoder's reusable arenas
// (the Scan path); with nil they are freshly allocated.
func decodeRIB(b []byte, v6 bool, rib *RIBRecord, dec *bgp.AttrDecoder) error {
	if len(b) < 5 {
		return errors.New("mrt: truncated RIB record")
	}
	rib.Seq = binary.BigEndian.Uint32(b[:4])
	bits := int(b[4])
	b = b[5:]
	max := 32
	if v6 {
		max = 128
	}
	if bits > max {
		return fmt.Errorf("mrt: prefix length %d exceeds %d", bits, max)
	}
	nbytes := (bits + 7) / 8
	if len(b) < nbytes+2 {
		return errors.New("mrt: truncated prefix")
	}
	if v6 {
		var a [16]byte
		copy(a[:], b[:nbytes])
		rib.Prefix = netip.PrefixFrom(netip.AddrFrom16(a), bits).Masked()
	} else {
		var a [4]byte
		copy(a[:], b[:nbytes])
		rib.Prefix = netip.PrefixFrom(netip.AddrFrom4(a), bits).Masked()
	}
	b = b[nbytes:]
	n := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	if rib.Entries == nil {
		rib.Entries = make([]RIBEntry, 0, n)
	}
	for i := 0; i < n; i++ {
		if len(b) < 8 {
			return errors.New("mrt: truncated RIB entry")
		}
		var e RIBEntry
		e.PeerIndex = binary.BigEndian.Uint16(b[:2])
		e.OriginatedAt = binary.BigEndian.Uint32(b[2:6])
		alen := int(binary.BigEndian.Uint16(b[6:8]))
		b = b[8:]
		if len(b) < alen {
			return errors.New("mrt: truncated RIB entry attributes")
		}
		var attrs bgp.AttrSet
		var err error
		if dec != nil {
			attrs, err = dec.Decode(b[:alen])
		} else {
			attrs, err = bgp.UnmarshalAttrs(b[:alen])
		}
		if err != nil {
			return fmt.Errorf("mrt: entry attrs: %w", err)
		}
		e.Attrs = attrs
		b = b[alen:]
		rib.Entries = append(rib.Entries, e)
	}
	return nil
}
