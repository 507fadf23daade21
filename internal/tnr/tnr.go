// Package tnr implements Transit Node Routing over a contraction hierarchy,
// the remaining IER oracle of Figure 4. Transit nodes are the top-ranked CH
// vertices; every vertex precomputes (a) its access nodes — the transit
// nodes met first on upward paths, with upward distances — and (b) its
// local cone — the upward search space below the transit level. A query is
// a table lookup over access-node pairs, with an exact local fallback that
// intersects the two cones (the role CH plays for local queries in the
// paper, explaining why TNR and CH coincide at high densities).
//
// Correctness: the apex (highest-ranked vertex) of the CH up-down path
// between s and t is either a transit node — covered by the access-node
// table — or its upward paths from both endpoints avoid transit nodes
// entirely (any upward predecessor outranking a transit node would itself
// be a transit node), so it appears in both local cones.
package tnr

import (
	"sort"

	"rnknn/internal/ch"
	"rnknn/internal/dijkstra"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

// Index is a built TNR index.
type Index struct {
	// isTransit marks transit vertices.
	isTransit []bool
	// transitID maps a transit vertex to its table row, -1 otherwise.
	transitID []int32
	// table is the |T| x |T| transit distance table.
	table []graph.Dist
	numT  int
	// Per-vertex access nodes (table rows) and upward distances, and the
	// local cone (vertices sorted ascending with upward distances).
	accOff  []int32
	accID   []int32
	accD    []graph.Dist
	coneOff []int32
	coneV   []int32
	coneD   []graph.Dist
}

// Build constructs TNR for g over its contraction hierarchy. The transit
// set is the top-ranked ~1.4*sqrt(|V|) vertices, at least 24 (the paper
// uses a 128 grid), and never more than |V|.
func Build(g *graph.Graph, hierarchy *ch.Index) *Index {
	n := g.NumVertices()
	m := 24
	for m*m < 2*n {
		m++
	}
	m = min(m, n)
	x := &Index{
		isTransit: make([]bool, n),
		transitID: make([]int32, n),
		numT:      m,
	}
	transit := make([]int32, 0, m)
	for v := int32(0); v < int32(n); v++ {
		x.transitID[v] = -1
		if int(hierarchy.Rank(v)) >= n-m {
			x.isTransit[v] = true
			transit = append(transit, v)
		}
	}
	sort.Slice(transit, func(a, b int) bool { return transit[a] < transit[b] })
	for i, v := range transit {
		x.transitID[v] = int32(i)
	}

	// Transit table: one full Dijkstra per transit node (m single-source
	// searches beat m^2 point-to-point queries at this set size).
	x.table = make([]graph.Dist, m*m)
	solver := dijkstra.NewSolver(g)
	dist := make([]graph.Dist, n)
	for i := 0; i < m; i++ {
		solver.All(transit[i], dist)
		for j := 0; j < m; j++ {
			x.table[i*m+j] = dist[transit[j]]
		}
	}

	// Access nodes and local cones from pruned upward searches.
	x.accOff = make([]int32, n+1)
	x.coneOff = make([]int32, n+1)
	type pair struct {
		v int32
		d graph.Dist
	}
	up := hierarchy.NewSearcher()
	for v := int32(0); v < int32(n); v++ {
		var acc, cone []pair
		up.UpwardSearch(v, func(u int32) bool { return x.isTransit[u] },
			func(u int32, d graph.Dist) {
				if x.isTransit[u] {
					acc = append(acc, pair{x.transitID[u], d})
				} else {
					cone = append(cone, pair{u, d})
				}
			})
		sort.Slice(cone, func(a, b int) bool { return cone[a].v < cone[b].v })
		for _, p := range acc {
			x.accID = append(x.accID, p.v)
			x.accD = append(x.accD, p.d)
		}
		for _, p := range cone {
			x.coneV = append(x.coneV, p.v)
			x.coneD = append(x.coneD, p.d)
		}
		x.accOff[v+1] = int32(len(x.accID))
		x.coneOff[v+1] = int32(len(x.coneV))
	}
	return x
}

// NumTransit returns the transit set size.
func (x *Index) NumTransit() int { return x.numT }

// Querier is a per-session view of the index with private hit counters.
// The Index tables are immutable after Build, so any number of Queriers may
// run concurrently; a single Querier is not safe for concurrent use.
type Querier struct {
	x *Index
	// TableHits / LocalHits count query resolutions per kind.
	TableHits, LocalHits int
}

// NewQuerier returns a fresh query session over the index.
func (x *Index) NewQuerier() *Querier { return &Querier{x: x} }

// Name implements knn.DistanceOracle.
func (q *Querier) Name() string { return "TNR" }

// Distance implements knn.DistanceOracle: the access-node table term
// merged with the local-cone term, counting which of the two won.
func (q *Querier) Distance(s, t int32) graph.Dist {
	if s == t {
		return 0
	}
	x := q.x
	best := graph.Inf
	// Access-node table term.
	m := x.numT
	for i := x.accOff[s]; i < x.accOff[s+1]; i++ {
		ai, ad := x.accID[i], x.accD[i]
		row := x.table[int(ai)*m:]
		for j := x.accOff[t]; j < x.accOff[t+1]; j++ {
			if d := ad + row[x.accID[j]] + x.accD[j]; d < best {
				best = d
			}
		}
	}
	tableBest := best
	// Local term: merge-join the two cones.
	i, iEnd := x.coneOff[s], x.coneOff[s+1]
	j, jEnd := x.coneOff[t], x.coneOff[t+1]
	for i < iEnd && j < jEnd {
		vi, vj := x.coneV[i], x.coneV[j]
		switch {
		case vi == vj:
			if d := x.coneD[i] + x.coneD[j]; d < best {
				best = d
			}
			i++
			j++
		case vi < vj:
			i++
		default:
			j++
		}
	}
	if best < tableBest {
		q.LocalHits++
	} else {
		q.TableHits++
	}
	return best
}

// SizeBytes estimates the index footprint (table + access + cones).
func (x *Index) SizeBytes() int {
	return len(x.table)*8 + len(x.accID)*4 + len(x.accD)*8 +
		len(x.coneV)*4 + len(x.coneD)*8 + len(x.accOff)*4 + len(x.coneOff)*4
}

var _ knn.DistanceOracle = (*Querier)(nil)
