package routing

import (
	"countryrank/internal/asn"
	"countryrank/internal/topology"
)

// FailureImpact summarizes what removing one inter-AS link changes: the
// backup-path analysis the paper's §7 motivates ("public BGP data does not
// reveal backup paths ... future work could attempt to infer backup paths").
// Failing a link in the simulator and re-propagating reveals exactly the
// backup paths a passive observer never sees.
type FailureImpact struct {
	A, B asn.ASN
	// ChangedRecords counts (VP, prefix) observations whose best path
	// changed after the failure.
	ChangedRecords int
	// LostRecords counts observations that became unreachable.
	LostRecords int
	// RevealedLinks counts adjacent AS pairs appearing on post-failure
	// paths that no pre-failure path contained: pure backup topology.
	RevealedLinks int
	// TotalRecords is the pre-failure observation count.
	TotalRecords int
}

// FailLink rebuilds the collection on a copy of w, the world col was built
// over, with the a–b relationship removed and diffs it against col. Neither
// the world nor the collection is modified.
func FailLink(w *topology.World, col *Collection, a, b asn.ASN, opt BuildOptions) FailureImpact {
	impact := FailureImpact{A: a, B: b, TotalRecords: len(col.Records)}

	// Pre-failure path index per (VP, prefix), and the pre-failure link set.
	type key struct{ vp, pfx int32 }
	before := make(map[key]int32, len(col.Records))
	for _, r := range col.Records {
		before[key{r.VP, r.Prefix}] = r.Path
	}
	links := map[[2]asn.ASN]bool{}
	for _, p := range col.Paths {
		for i := 0; i+1 < len(p); i++ {
			links[linkKey(p[i], p[i+1])] = true
		}
	}

	// Fail the link on a cloned graph and re-propagate. Anomaly injection
	// is disabled: the diff must reflect routing, not noise.
	failed := *w
	failed.Graph = w.Graph.Clone()
	failed.Graph.RemoveEdge(a, b)
	opt.LoopFrac, opt.PoisonFrac, opt.UnallocFrac = -1, -1, -1
	after := BuildCollection(&failed, opt)

	afterIdx := make(map[key]int32, len(after.Records))
	for _, r := range after.Records {
		afterIdx[key{r.VP, r.Prefix}] = r.Path
	}

	revealed := map[[2]asn.ASN]bool{}
	for k, beforePath := range before {
		afterPath, ok := afterIdx[k]
		if !ok {
			impact.LostRecords++
			continue
		}
		if !col.Paths[beforePath].Equal(after.Paths[afterPath]) {
			impact.ChangedRecords++
			p := after.Paths[afterPath]
			for i := 0; i+1 < len(p); i++ {
				lk := linkKey(p[i], p[i+1])
				if !links[lk] {
					revealed[lk] = true
				}
			}
		}
	}
	impact.RevealedLinks = len(revealed)
	return impact
}

func linkKey(a, b asn.ASN) [2]asn.ASN {
	if a > b {
		a, b = b, a
	}
	return [2]asn.ASN{a, b}
}
