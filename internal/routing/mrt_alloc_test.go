package routing

import (
	"runtime"
	"testing"
	"unsafe"
)

// retainedBytes is what an imported collection keeps reachable: its record,
// prefix, origin and stability columns and the path table with the ASNs
// behind it.
func retainedBytes(c *Collection) uint64 {
	n := uint64(len(c.Records))*uint64(unsafe.Sizeof(Record{})) +
		uint64(len(c.Prefixes))*uint64(unsafe.Sizeof(c.Prefixes[0])+unsafe.Sizeof(c.Origin[0])+unsafe.Sizeof(c.Stable[0])) +
		uint64(len(c.Paths))*uint64(unsafe.Sizeof(c.Paths[0]))
	for _, p := range c.Paths {
		n += uint64(len(p)) * uint64(unsafe.Sizeof(p[0]))
	}
	return n
}

// TestImportAllocBudget bounds what one ImportMRTFiles allocates by what it
// hands back. Decode buffers that grow without copying, a merge sized once
// and no per-stream prefix map keep this import at 3.6× its result (the
// stream-local records, prefixes and paths, the global ones, the intern
// table); buffers grown by append re-copied everything at each doubling and
// took 10.2×.
func TestImportAllocBudget(t *testing.T) {
	w := testWorld(t)
	paths := writeDumps(t, BuildCollection(w, BuildOptions{}))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one worker's buffers at a time: a count, not a race
	if _, _, err := ImportMRTFiles(w, paths, ImportOptions{}); err != nil {
		t.Fatal(err) // warm: pools and lazily built tables are not the import's
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	col, _, err := ImportMRTFiles(w, paths, ImportOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 4
	alloc, kept := after.TotalAlloc-before.TotalAlloc, retainedBytes(col)
	t.Logf("allocated %d bytes for a collection retaining %d (%.2f×)", alloc, kept, float64(alloc)/float64(kept))
	if alloc > budget*kept {
		t.Errorf("import allocated %d bytes, over %d× the %d its collection retains", alloc, budget, kept)
	}
}
