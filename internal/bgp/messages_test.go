package bgp

import (
	"net/netip"
	"testing"
)

func TestOpenRoundTrip16Bit(t *testing.T) {
	o := &Open{AS: 6447, HoldTime: 90, BGPID: netip.MustParseAddr("10.0.0.1")}
	raw, err := o.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	msg, n, err := ReadMessage(raw)
	if err != nil || msg == nil || n != len(raw) {
		t.Fatalf("ReadMessage: %v %v %d", msg, err, n)
	}
	if msg.Type != TypeOpen || msg.Open.AS != 6447 || msg.Open.HoldTime != 90 {
		t.Errorf("open = %+v", msg.Open)
	}
	if msg.Open.Version != 4 {
		t.Errorf("version = %d", msg.Open.Version)
	}
	if msg.Open.BGPID != netip.MustParseAddr("10.0.0.1") {
		t.Errorf("bgpid = %v", msg.Open.BGPID)
	}
}

func TestOpenRoundTrip32BitAS(t *testing.T) {
	// A 4-byte ASN travels via the capability; the 2-byte field carries
	// AS_TRANS.
	o := &Open{AS: 401234, HoldTime: 180, BGPID: netip.MustParseAddr("192.0.2.1")}
	raw, err := o.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := ReadMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Open.AS != 401234 {
		t.Errorf("AS = %v, want 401234 via capability", msg.Open.AS)
	}
}

func TestOpenRequiresV4ID(t *testing.T) {
	o := &Open{AS: 1, BGPID: netip.MustParseAddr("2001:db8::1")}
	if _, err := o.Marshal(); err == nil {
		t.Error("v6 BGP ID must be rejected")
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := &Notification{Code: 6 /* Cease */, Subcode: 2, Data: []byte{1, 2, 3}}
	raw, err := n.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := ReadMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.Notification
	if got.Code != 6 || got.Subcode != 2 || len(got.Data) != 3 {
		t.Errorf("notification = %+v", got)
	}
	if got.Error() == "" {
		t.Error("Error() empty")
	}
}

func TestKeepalive(t *testing.T) {
	raw := MarshalKeepalive()
	msg, n, err := ReadMessage(raw)
	if err != nil || msg.Type != TypeKeepalive || n != 19 {
		t.Fatalf("keepalive: %+v %d %v", msg, n, err)
	}
}

func TestReadMessagePartial(t *testing.T) {
	raw := MarshalKeepalive()
	// Any strict prefix yields "incomplete", never an error.
	for cut := 0; cut < len(raw); cut++ {
		msg, n, err := ReadMessage(raw[:cut])
		if msg != nil || n != 0 || err != nil {
			t.Fatalf("cut %d: %v %d %v", cut, msg, n, err)
		}
	}
	// Concatenated messages parse one at a time.
	double := append(append([]byte{}, raw...), raw...)
	msg, n, err := ReadMessage(double)
	if err != nil || msg == nil || n != 19 {
		t.Fatalf("first of two: %v %d %v", msg, n, err)
	}
}

func TestReadMessageGarbage(t *testing.T) {
	junk := make([]byte, 19)
	_, _, err := ReadMessage(junk)
	notif, ok := err.(*Notification)
	if !ok || notif.Code != NotifMessageHeaderError {
		t.Fatalf("err = %v", err)
	}
	// Bad length field.
	raw := MarshalKeepalive()
	raw[16], raw[17] = 0, 5 // length 5 < 19
	if _, _, err := ReadMessage(raw); err == nil {
		t.Error("undersized length must fail")
	}
	// Unknown type.
	raw = MarshalKeepalive()
	raw[18] = 9
	if _, _, err := ReadMessage(raw); err == nil {
		t.Error("unknown type must fail")
	}
	// Keepalive with a body.
	withBody, _ := wrapMessage(TypeKeepalive, []byte{1})
	if _, _, err := ReadMessage(withBody); err == nil {
		t.Error("keepalive with body must fail")
	}
}

func TestUnmarshalOpenTruncations(t *testing.T) {
	o := &Open{AS: 401234, HoldTime: 90, BGPID: netip.MustParseAddr("10.0.0.1")}
	raw, _ := o.Marshal()
	body := raw[19:]
	for cut := 0; cut < len(body); cut++ {
		if _, err := UnmarshalOpen(body[:cut]); err == nil && cut < 10 {
			t.Fatalf("cut %d should fail", cut)
		}
	}
}
