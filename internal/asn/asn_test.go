package asn

import "testing"

// Allocated reports whether a is assigned and usable in a public path: the
// lookup form of the set ForEach visits.
func (r *Registry) Allocated(a ASN) bool {
	if a.Reserved() {
		return false
	}
	return r != nil && r.allocated[a]
}

func TestString(t *testing.T) {
	if got := ASN(3356).String(); got != "AS3356" {
		t.Errorf("String = %q", got)
	}
}

func TestReserved(t *testing.T) {
	reserved := []ASN{0, 64496, 64511, 64512, 65000, 65534, 65535, 65536, 65551, 4200000000, 4294967294, 4294967295, 64198, 64495}
	for _, a := range reserved {
		if !a.Reserved() {
			t.Errorf("%v should be reserved", a)
		}
	}
	public := []ASN{1, 3356, 1299, 23456, 64197, 65552, 131072, 4199999999}
	for _, a := range public {
		if a.Reserved() {
			t.Errorf("%v should not be reserved", a)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry([]ASN{3356, 1299})
	if !r.Allocated(3356) || !r.Allocated(1299) {
		t.Error("seeded ASNs should be allocated")
	}
	if r.Allocated(174) {
		t.Error("174 not allocated yet")
	}
	r.Allocate(174)
	if !r.Allocated(174) {
		t.Error("Allocate should take effect")
	}
	if len(r.allocated) != 3 {
		t.Errorf("%d allocated, want 3", len(r.allocated))
	}
	// Reserved ASNs can never be allocated-for-use.
	r.Allocate(65000)
	if r.Allocated(65000) {
		t.Error("reserved ASN must not report allocated")
	}
}

func TestRegistryZeroValue(t *testing.T) {
	var r Registry
	if r.Allocated(3356) {
		t.Error("zero registry allocates nothing")
	}
	r.Allocate(3356)
	if !r.Allocated(3356) {
		t.Error("Allocate on zero value should initialize the map")
	}
	var nilReg *Registry
	if nilReg.Allocated(3356) {
		t.Error("nil registry allocates nothing")
	}
}
