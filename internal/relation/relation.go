// Package relation infers AS business relationships from observed AS paths,
// following the core of the Luckie et al. 2013 algorithm the paper's
// customer cone metric builds on: infer the transit-free clique from transit
// degree, seed provider→customer labels from the downhill side of paths
// through the clique, propagate them along the valley-free assumption, and
// fall back to transit-degree comparison for the remainder.
//
// Because the topology generator keeps ground truth, this package can also
// score its own inferences (Validate), which the original measurement study
// could only sample. The simplified variant labels 94.1 % of 1,583 edges
// right on the seed-1 world at scales 0.4/0.5 (TestInferenceValidation);
// the residual errors are peerings between clique members and open-peering
// networks just below the clique, which the full Luckie algorithm tells
// apart by vote counting this reproduction omits. The ranking pipeline
// defaults to ground-truth relationships and uses inference as an ablation.
package relation

import (
	"sort"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/topology"
)

// Oracle answers relationship queries. topology.Graph (ground truth) and
// Table (inferred) both implement it.
type Oracle interface {
	// Rel returns the relationship from a's perspective.
	Rel(a, b asn.ASN) topology.Rel
}

// Memo asks the oracle behind it about each ordered AS pair once, in a
// dataset's dense-id space (sanitize.Dataset.ASNOf). A dataset's paths cross
// the same few thousand links over and over, and a ground-truth answer costs
// two index lookups and two adjacency scans, so the kernels that resolve
// every path (cone.Starts, cti.Depths) put one in front of whatever oracle
// they are given. An answer is one byte in the row of its left-hand id; a row
// is made when its AS first stands on the left of a question, which only the
// few hundred ASes with a hop below them on some path ever do, so the memo
// stays linear in the number of ASes where a full table would be quadratic.
// Not safe for concurrent use.
type Memo struct {
	oracle Oracle
	asnOf  []asn.ASN
	// rows[a][b]: 0 not asked yet, else Rel(asnOf[a], asnOf[b]) + 2. Every
	// row starts out as unasked, the one all-zero row.
	rows    [][]topology.Rel
	unasked []topology.Rel
}

// NewMemo returns an empty memo in front of o for ids that index asnOf.
func NewMemo(o Oracle, asnOf []asn.ASN) *Memo {
	m := &Memo{
		oracle: o, asnOf: asnOf,
		rows: make([][]topology.Rel, len(asnOf)), unasked: make([]topology.Rel, len(asnOf)),
	}
	for a := range m.rows {
		m.rows[a] = m.unasked
	}
	return m
}

// Rel returns the relationship from id a's perspective. The answered case is
// small enough to inline into the kernels' hop loops.
func (m *Memo) Rel(a, b int32) topology.Rel {
	if r := m.rows[a][b]; r != 0 {
		return r - 2
	}
	return m.ask(a, b)
}

// ask is Rel's first time for (a, b): a gets its own row if it had none.
func (m *Memo) ask(a, b int32) topology.Rel {
	if &m.rows[a][0] == &m.unasked[0] {
		m.rows[a] = make([]topology.Rel, len(m.asnOf))
	}
	r := m.oracle.Rel(m.asnOf[a], m.asnOf[b])
	m.rows[a][b] = r + 2
	return r
}

// Table holds inferred relationships.
type Table struct {
	rels map[[2]asn.ASN]topology.Rel // canonical key: a < b, rel from a's view
}

// Rel implements Oracle.
func (t *Table) Rel(a, b asn.ASN) topology.Rel {
	if a == b {
		return topology.RelNone
	}
	k, flip := key(a, b)
	r, ok := t.rels[k]
	if !ok {
		return topology.RelNone
	}
	if flip {
		return invert(r)
	}
	return r
}

// Len returns the number of labeled AS pairs.
func (t *Table) Len() int { return len(t.rels) }

func key(a, b asn.ASN) ([2]asn.ASN, bool) {
	if a < b {
		return [2]asn.ASN{a, b}, false
	}
	return [2]asn.ASN{b, a}, true
}

func invert(r topology.Rel) topology.Rel {
	switch r {
	case topology.RelP2C:
		return topology.RelC2P
	case topology.RelC2P:
		return topology.RelP2C
	}
	return r
}

// transitDegree counts, per AS, the distinct neighbors it appears between
// on paths (i.e. neighbors for which it provides visible transit).
func transitDegree(paths []bgp.Path) map[asn.ASN]int {
	seen := map[asn.ASN]map[asn.ASN]bool{}
	add := func(mid, nb asn.ASN) {
		m := seen[mid]
		if m == nil {
			m = map[asn.ASN]bool{}
			seen[mid] = m
		}
		m[nb] = true
	}
	for _, p := range paths {
		for i := 1; i+1 < len(p); i++ {
			add(p[i], p[i-1])
			add(p[i], p[i+1])
		}
	}
	out := make(map[asn.ASN]int, len(seen))
	for a, m := range seen {
		out[a] = len(m)
	}
	return out
}

// InferClique infers the transit-free clique: among the highest-transit-
// degree ASes, greedily grow a clique in the path-adjacency graph, seeded
// by the top-degree AS (Luckie's step 1, simplified).
func InferClique(paths []bgp.Path, candidates int) []asn.ASN {
	if candidates <= 0 {
		candidates = 25
	}
	deg := transitDegree(paths)
	adj := map[[2]asn.ASN]bool{}
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			k, _ := key(p[i], p[i+1])
			adj[k] = true
		}
	}
	type cand struct {
		a asn.ASN
		d int
	}
	cs := make([]cand, 0, len(deg))
	for a, d := range deg {
		cs = append(cs, cand{a, d})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].d != cs[j].d {
			return cs[i].d > cs[j].d
		}
		return cs[i].a < cs[j].a
	})
	if len(cs) > candidates {
		cs = cs[:candidates]
	}
	var clique []asn.ASN
	for _, c := range cs {
		ok := true
		for _, m := range clique {
			k, _ := key(c.a, m)
			if !adj[k] {
				ok = false
				break
			}
		}
		if ok {
			clique = append(clique, c.a)
		}
	}
	sort.Slice(clique, func(i, j int) bool { return clique[i] < clique[j] })
	return clique
}

// Infer labels relationships from the paths. The clique may come from
// InferClique or from external knowledge. Paths must already be sanitized
// (no loops, no route servers, no prepending).
func Infer(paths []bgp.Path, clique []asn.ASN) *Table {
	t := &Table{rels: map[[2]asn.ASN]topology.Rel{}}
	inClique := map[asn.ASN]bool{}
	for _, a := range clique {
		inClique[a] = true
	}

	setRel := func(a, b asn.ASN, r topology.Rel) {
		k, flip := key(a, b)
		if flip {
			r = invert(r)
		}
		t.rels[k] = r
	}
	haveRel := func(a, b asn.ASN) bool {
		k, _ := key(a, b)
		_, ok := t.rels[k]
		return ok
	}

	// Step 1: clique members peer with each other.
	for i, a := range clique {
		for _, b := range clique[i+1:] {
			setRel(a, b, topology.RelP2P)
		}
	}

	// Step 2: every edge downstream of a clique member on a path is
	// provider→customer (the downhill side of the valley).
	for _, p := range paths {
		for i, a := range p {
			if !inClique[a] {
				continue
			}
			for j := i; j+1 < len(p); j++ {
				if inClique[p[j]] && inClique[p[j+1]] {
					continue // adjacent clique pair already peered
				}
				setRel(p[j], p[j+1], topology.RelP2C)
			}
			break
		}
	}

	// Step 3: propagate downhill: once a path goes provider→customer it
	// can never climb again, so every edge after a known p2c edge is p2c.
	// Two sweeps reach a fixpoint for the path set.
	for sweep := 0; sweep < 2; sweep++ {
		for _, p := range paths {
			down := false
			for i := 0; i+1 < len(p); i++ {
				a, b := p[i], p[i+1]
				k, flip := key(a, b)
				r, ok := t.rels[k]
				if ok {
					if flip {
						r = invert(r)
					}
					down = r == topology.RelP2C
					continue
				}
				if down {
					setRel(a, b, topology.RelP2C)
				}
			}
		}
	}

	// Step 4: remaining unlabeled edges get degree-based labels: a much
	// larger transit degree means provider; anything less lopsided means
	// peers. The bar is high because the edges that survive to this step
	// are mostly near-the-summit links, where peering dominates.
	deg := transitDegree(paths)
	const ratio = 2
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			a, b := p[i], p[i+1]
			if a == b || haveRel(a, b) {
				continue
			}
			da, db := float64(deg[a]+1), float64(deg[b]+1)
			switch {
			case db >= da*ratio:
				setRel(a, b, topology.RelC2P) // a is the customer
			case da >= db*ratio:
				setRel(a, b, topology.RelP2C)
			default:
				setRel(a, b, topology.RelP2P)
			}
		}
	}
	return t
}

// Validation compares inferred labels with ground truth.
type Validation struct {
	Compared int
	Correct  int
	// Confusion[truth][inferred] counts mismatches by kind.
	Confusion map[topology.Rel]map[topology.Rel]int
}

// Accuracy returns the fraction of compared edges labeled correctly.
func (v Validation) Accuracy() float64 {
	if v.Compared == 0 {
		return 0
	}
	return float64(v.Correct) / float64(v.Compared)
}

// Validate scores the table against the ground-truth graph over every edge
// the table labeled that also exists in the graph.
func Validate(t *Table, g *topology.Graph) Validation {
	v := Validation{Confusion: map[topology.Rel]map[topology.Rel]int{}}
	for k, r := range t.rels {
		truth := g.Rel(k[0], k[1])
		if truth == topology.RelNone {
			continue // edge not in ground truth (injected path noise)
		}
		v.Compared++
		if truth == r {
			v.Correct++
			continue
		}
		m := v.Confusion[truth]
		if m == nil {
			m = map[topology.Rel]int{}
			v.Confusion[truth] = m
		}
		m[r]++
	}
	return v
}
