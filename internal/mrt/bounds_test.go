package mrt

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// pitBody is a PEER_INDEX_TABLE body: collector ID, view name and peer
// count, then the entry bytes as given.
func pitBody(name string, peers uint16, entries ...byte) []byte {
	b := []byte{192, 0, 2, 9}
	b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	b = binary.BigEndian.AppendUint16(b, peers)
	return append(b, entries...)
}

// ribBody is a RIB body: sequence number, prefix length, the prefix bytes
// and entry count, then the entry bytes as given.
func ribBody(bits byte, prefix []byte, entries uint16, rest ...byte) []byte {
	b := []byte{0, 0, 0, 7, bits}
	b = append(b, prefix...)
	b = binary.BigEndian.AppendUint16(b, entries)
	return append(b, rest...)
}

// ribEntry is a RIB entry's 8-byte head (peer index 0, originated time,
// attribute length alen) followed by attrs.
func ribEntry(alen uint16, attrs []byte) []byte {
	b := []byte{0, 0, 0x60, 0x65, 0x3a, 0x00}
	b = binary.BigEndian.AppendUint16(b, alen)
	return append(b, attrs...)
}

// TestDecodeLengthBounds gives each length check of decodePeerIndexTable and
// decodeRIB a body exactly at its limit and one a byte short of it. The
// short body fails with that check's message. The body at the limit gets
// past the check: it decodes, or, where nothing can follow that check in a
// whole entry, fails at the next check instead. So moving a check by one
// byte either way changes an outcome here.
func TestDecodeLengthBounds(t *testing.T) {
	wire, err := attrs(3356, 1299).AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	alen := uint16(len(wire))
	v4 := []byte{0, 192, 0, 2, 1, 203, 0, 113, 1}                                          // type 0, BGP ID, IPv4 address
	v6 := []byte{1, 192, 0, 2, 1, 0x20, 1, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7} // type 1, BGP ID, IPv6 address
	as4 := append([]byte{2}, v4[1:]...)                                                    // type 2: a 4-byte AS follows

	for _, tc := range []struct {
		name      string
		rib, v6   bool
		at, short []byte
		atErr     string // "" when the body at the limit decodes
		shortErr  string
	}{
		{"peer table", false, false,
			pitBody("", 0), pitBody("", 0)[:7], "", "mrt: truncated PEER_INDEX_TABLE"},
		{"view name", false, false,
			pitBody("rv2", 0), pitBody("rv2", 0)[:10], "", "mrt: truncated view name"},
		{"peer entry", false, false,
			pitBody("", 1, v4[:5]...), pitBody("", 1, v4[:4]...), "mrt: truncated v4 peer address", "mrt: truncated peer entry"},
		{"v4 peer address", false, false,
			pitBody("", 1, v4...), pitBody("", 1, v4[:8]...), "mrt: truncated peer AS", "mrt: truncated v4 peer address"},
		{"v6 peer address", false, false,
			pitBody("", 1, v6...), pitBody("", 1, v6[:20]...), "mrt: truncated peer AS", "mrt: truncated v6 peer address"},
		{"2-byte peer AS", false, false,
			pitBody("", 1, append(v4, 0x0d, 0x1c)...), pitBody("", 1, append(v4, 0x0d)...), "", "mrt: truncated peer AS"},
		{"4-byte peer AS", false, false,
			pitBody("", 1, append(as4, 0, 0, 0x0d, 0x1c)...), pitBody("", 1, append(as4, 0, 0, 0x0d)...), "", "mrt: truncated peer AS"},
		{"RIB record", true, false,
			ribBody(0, nil, 0)[:5], ribBody(0, nil, 0)[:4], "mrt: truncated prefix", "mrt: truncated RIB record"},
		{"v4 prefix length", true, false,
			ribBody(32, []byte{10, 1, 2, 3}, 0), ribBody(33, []byte{10, 1, 2, 3, 4}, 0), "", "mrt: prefix length 33 exceeds 32"},
		{"v6 prefix length", true, true,
			ribBody(128, make([]byte, 16), 0), ribBody(129, make([]byte, 17), 0), "", "mrt: prefix length 129 exceeds 128"},
		{"prefix", true, false,
			ribBody(24, []byte{10, 1, 2}, 0), ribBody(24, []byte{10, 1, 2}, 0)[:9], "", "mrt: truncated prefix"},
		{"RIB entry", true, false,
			ribBody(8, []byte{10}, 1, ribEntry(0, nil)...), ribBody(8, []byte{10}, 1, ribEntry(0, nil)[:7]...), "", "mrt: truncated RIB entry"},
		{"RIB entry attributes", true, false,
			ribBody(8, []byte{10}, 1, ribEntry(alen, wire)...), ribBody(8, []byte{10}, 1, ribEntry(alen, wire[:alen-1])...), "", "mrt: truncated RIB entry attributes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := decodeBody(tc.at, tc.rib, tc.v6); tc.atErr == "" && err != nil || tc.atErr != "" && (err == nil || err.Error() != tc.atErr) {
				t.Errorf("at the limit (%d bytes): %v, want %q", len(tc.at), err, tc.atErr)
			}
			if err := decodeBody(tc.short, tc.rib, tc.v6); err == nil || err.Error() != tc.shortErr {
				t.Errorf("a byte short (%d bytes): %v, want %q", len(tc.short), err, tc.shortErr)
			}
		})
	}
}

// decodeBody decodes b as a RIB body, or with rib false as a peer table,
// into fresh storage.
func decodeBody(b []byte, rib, v6 bool) error {
	if rib {
		return decodeRIB(b, v6, &RIBRecord{}, nil)
	}
	return decodePeerIndexTable(b, &PeerIndexTable{})
}

// TestCountsDoNotSizeAllocations: a count or a length is the wire's claim,
// so a body that claims 65,535 entries and holds none, or a 12-byte stream
// whose header claims a body of 1<<26 bytes, fails as it always did without
// first allocating room for what it claims.
func TestCountsDoNotSizeAllocations(t *testing.T) {
	var lying [recordHeaderLen]byte
	binary.BigEndian.PutUint16(lying[4:], TypeTableDumpV2)
	binary.BigEndian.PutUint16(lying[6:], SubtypeRIBIPv4Unicast)
	binary.BigEndian.PutUint32(lying[8:], 1<<26)
	for _, tc := range []struct {
		name  string
		run   func() error
		err   string
		limit uint64 // bytes a run may allocate
	}{
		{"RIB entries", func() error { return decodeBody(ribBody(0, nil, 0xffff), true, false) }, "mrt: truncated RIB entry", 1 << 10},
		{"peers", func() error { return decodeBody(pitBody("", 0xffff), false, false) }, "mrt: truncated peer entry", 1 << 10},
		// The reader's own buffers count here, so the bound is looser.
		{"record length", func() error {
			_, err := NewReader(bytes.NewReader(lying[:])).Scan()
			return err
		}, "mrt: body: EOF", 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const runs = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				if err := tc.run(); err == nil || err.Error() != tc.err {
					t.Fatalf("%v, want %q", err, tc.err)
				}
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= tc.limit {
				t.Errorf("%d bytes allocated per run, want under %d", per, tc.limit)
			}
		})
	}
}
