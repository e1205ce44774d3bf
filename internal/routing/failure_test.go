package routing

import (
	"net/netip"
	"testing"

	"countryrank/internal/asn"
	"countryrank/internal/geoloc"
	"countryrank/internal/netx"
	"countryrank/internal/topology"
	"countryrank/internal/vp"
)

func TestFailLinkRevealsBackupPaths(t *testing.T) {
	w := testWorld(t)
	col := BuildCollection(w, BuildOptions{LoopFrac: -1, PoisonFrac: -1, UnallocFrac: -1})

	// Fail NTT OCN's sole transit link (2914 → 4713): every observation of
	// OCN-originated prefixes from outside must change or die, revealing
	// the Vocus-style backups... here OCN is single-homed, so its prefixes
	// become unreachable from abroad while domestic peerings may survive.
	impact := FailLink(w, col, 2914, 4713)
	if impact.TotalRecords != len(col.Records) {
		t.Fatalf("total = %d", impact.TotalRecords)
	}
	if impact.ChangedRecords == 0 && impact.LostRecords == 0 {
		t.Fatal("failing the incumbent's transit link changed nothing")
	}

	// Fail one of Rostelecom's three transit links: reachability must be
	// preserved (multihoming) while many paths shift to the backups.
	impact2 := FailLink(w, col, 1299, 12389)
	if impact2.LostRecords > impact2.TotalRecords/100 {
		t.Errorf("multihomed failure lost %d records", impact2.LostRecords)
	}
	if impact2.ChangedRecords == 0 {
		t.Error("failing a used transit link should move paths")
	}

	// The original collection must be untouched.
	if w.Graph.Rel(1299, 12389) != topology.RelP2C {
		t.Error("FailLink mutated the original world")
	}
}

// TestHiddenBackupRevealed constructs the situation §7 describes: a backup
// link invisible to passive observation until the primary fails.
func TestHiddenBackupRevealed(t *testing.T) {
	g := topology.NewGraph()
	for _, a := range []uint32{10, 20, 30, 99} {
		g.MustAddAS(topology.AS{ASN: asn.ASN(a), Class: topology.ClassTransit, Registered: "US"})
	}
	// VP AS 10 is a provider of 20 and 30; origin 99 dual-homes to 20
	// (primary, shorter from the VP by tie-hash or equal) and 30.
	g.AddP2C(10, 20)
	g.AddP2C(10, 30)
	g.AddP2C(20, 99)
	g.AddP2C(30, 99)
	g.Originate(99, netx.MustPrefix("10.9.0.0/24"))

	set, err := vp.NewSet(
		[]vp.Collector{{Name: "rc", ID: netip.MustParseAddr("10.0.0.1"), Country: "US"}},
		[]vp.VP{{Index: 0, Addr: netip.MustParseAddr("10.0.0.9"), AS: 10, Collector: "rc"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	w := &topology.World{Graph: g, VPs: set, Geo: &geoloc.DB{}}
	col := BuildCollection(w, BuildOptions{LoopFrac: -1, PoisonFrac: -1, UnallocFrac: -1, UnstableFrac: -1})
	if len(col.Records) != 1 {
		t.Fatalf("records = %d", len(col.Records))
	}
	primary := col.Path(col.Records[0].Path)
	mid := primary[1] // 20 or 30, whichever the tie-hash chose
	backup := asn.ASN(50 - uint32(mid))

	impact := FailLink(w, col, mid, 99)
	if impact.ChangedRecords != 1 || impact.LostRecords != 0 {
		t.Fatalf("impact = %+v", impact)
	}
	// Both hops of the backup route (VP→backup and backup→origin) were
	// invisible before the failure.
	if impact.RevealedLinks != 2 {
		t.Errorf("revealed links = %d, want 2 (via %v)", impact.RevealedLinks, backup)
	}
}

func TestFailAbsentLinkIsNoop(t *testing.T) {
	w := testWorld(t)
	col := BuildCollection(w, BuildOptions{LoopFrac: -1, PoisonFrac: -1, UnallocFrac: -1})
	impact := FailLink(w, col, 3356, 2516) // no such edge (KDDI buys from 2914/3257)
	if w.Graph.Rel(3356, 2516) != topology.RelNone {
		t.Skip("edge exists in this world; pick another")
	}
	if impact.ChangedRecords != 0 || impact.LostRecords != 0 {
		t.Errorf("no-op failure changed %d, lost %d", impact.ChangedRecords, impact.LostRecords)
	}
}
