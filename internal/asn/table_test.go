package asn

import "testing"

func TestTable(t *testing.T) {
	var tab Table[int32]
	edges := []ASN{0, 1, 65535, 65536, 65537, 131071, 131072, 4199999999, 4294967295}
	for _, a := range edges {
		if got := tab.Get(a); got != 0 {
			t.Fatalf("empty table: Get(%d) = %d", a, got)
		}
	}
	if tab.Pages() != 0 {
		t.Fatalf("Get created %d pages in an empty table", tab.Pages())
	}
	if n := testing.AllocsPerRun(100, func() { tab.Get(4294967295) }); n != 0 {
		t.Fatalf("Get on a missing page allocates %.0f objects", n)
	}

	for i, a := range edges {
		*tab.At(a) = int32(i + 1)
	}
	for i, a := range edges {
		if got := tab.Get(a); got != int32(i+1) {
			t.Errorf("Get(%d) = %d after At wrote %d", a, got, i+1)
		}
		if got := *tab.At(a); got != int32(i+1) {
			t.Errorf("At(%d) reads %d after writing %d", a, got, i+1)
		}
	}
	// 0, 1 and 65535 share page 0; 65536, 65537 and 131071 page 1; 131072,
	// 4199999999 and 4294967295 have one each.
	if tab.Pages() != 5 {
		t.Errorf("%d pages after writing %v, want 5", tab.Pages(), edges)
	}

	// Neighbours of written slots, on written pages and between them, and a
	// page past every written one.
	before := tab.Pages()
	for _, a := range []ASN{2, 65534, 65538, 131073, 196608, 4199999998, 4294967294} {
		if got := tab.Get(a); got != 0 {
			t.Errorf("Get(%d) = %d, nothing was written there", a, got)
		}
	}
	var low Table[uint8]
	*low.At(7) = 1
	if got := low.Get(4294967295); got != 0 || low.Pages() != 1 {
		t.Errorf("Get past the last page = %d with %d pages, want 0 with 1", got, low.Pages())
	}
	if tab.Pages() != before {
		t.Errorf("lookups grew the table from %d to %d pages", before, tab.Pages())
	}
}

func TestRegistryForEachVisitsWhatAllocatedReports(t *testing.T) {
	r := NewRegistry([]ASN{7, 3356, 64512, 0, 131072}) // 64512 and 0 are reserved
	seen := map[ASN]bool{}
	r.ForEach(func(a ASN) {
		if !r.Allocated(a) {
			t.Errorf("ForEach visited %v, which Allocated denies", a)
		}
		seen[a] = true
	})
	if len(seen) != 3 || !seen[7] || !seen[3356] || !seen[131072] {
		t.Errorf("ForEach visited %v, want AS7, AS3356 and AS131072", seen)
	}
	new(Registry).ForEach(func(a ASN) { t.Errorf("empty registry visited %v", a) })
}
