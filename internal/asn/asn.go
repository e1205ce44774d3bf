// Package asn models autonomous system numbers and the IANA allocation
// policy the sanitization pipeline consults: paths containing ASNs that IANA
// reports as unassigned or reserved are rejected (Table 1, "unallocated").
package asn

import "strconv"

// ASN is a 4-byte autonomous system number (RFC 6793).
type ASN uint32

// String renders the ASN in the conventional "AS64500" form.
func (a ASN) String() string { return "AS" + strconv.FormatUint(uint64(a), 10) }

// Special ASN ranges per IANA's autonomous-system-numbers registry and
// RFC 5398 / RFC 6996 / RFC 7300.
const (
	// ASTrans is the 2-byte placeholder for 4-byte ASNs (RFC 6793).
	ASTrans ASN = 23456
	// Last16 is the last plain 16-bit ASN.
	Last16 ASN = 65535
)

// Reserved reports whether a falls in a range reserved by IANA and therefore
// must never appear in a clean public AS path: AS0, documentation ranges
// (RFC 5398), private-use ranges (RFC 6996), and the last ASNs of each size
// (RFC 7300).
func (a ASN) Reserved() bool {
	switch {
	case a == 0:
		return true
	case a >= 64198 && a <= 64495: // IANA reserved
		return true
	case a >= 64496 && a <= 64511: // documentation (RFC 5398)
		return true
	case a >= 64512 && a <= 65534: // private use (RFC 6996)
		return true
	case a == 65535: // last 16-bit (RFC 7300)
		return true
	case a >= 65536 && a <= 65551: // documentation (RFC 5398)
		return true
	case a >= 4200000000 && a <= 4294967294: // private use (RFC 6996)
		return true
	case a == 4294967295: // last 32-bit (RFC 7300)
		return true
	}
	return false
}

// Registry records which ASNs are allocated (assigned to an operator by an
// RIR). The sanitizer rejects paths containing unallocated ASNs. The zero
// value treats every non-reserved ASN as unallocated.
type Registry struct {
	allocated map[ASN]bool
}

// NewRegistry returns a registry with the given ASNs marked allocated.
func NewRegistry(allocated []ASN) *Registry {
	r := &Registry{allocated: make(map[ASN]bool, len(allocated))}
	for _, a := range allocated {
		r.allocated[a] = true
	}
	return r
}

// Allocate marks a as allocated.
func (r *Registry) Allocate(a ASN) {
	if r.allocated == nil {
		r.allocated = make(map[ASN]bool)
	}
	r.allocated[a] = true
}

// ForEach calls fn for every allocated ASN that is not reserved, in no
// particular order.
func (r *Registry) ForEach(fn func(ASN)) {
	for a := range r.allocated {
		if !a.Reserved() {
			fn(a)
		}
	}
}
