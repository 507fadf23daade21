package gtree

import (
	"slices"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/partition"
	"rnknn/internal/pqueue"
)

// BenchmarkGtreeBuild is the in-tree twin of rnbench's build.gtree_s:
// partitioning NW and building its G-tree with the default tau.
func BenchmarkGtreeBuild(b *testing.B) {
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	b.ReportAllocs()
	for b.Loop() {
		Build(g)
	}
}

// TestBuildMatchesReferenceRefinement checks that the closed-form
// refinement and the clique-trusting border searches build, node for node,
// the index the two-pass Dijkstra build in referenceBuild does.
func TestBuildMatchesReferenceRefinement(t *testing.T) {
	spec := func(seed int64) gen.NetworkSpec {
		return gen.NetworkSpec{Name: "t", Rows: 20, Cols: 22, Seed: seed}
	}
	cases := []struct {
		name string
		g    *graph.Graph
		tau  int
	}{
		{"distance", gen.Network(spec(88)), 32},
		{"travel-time", gen.Network(spec(89)).View(graph.TravelTime), 24},
		{"unit-grid", unitGrid(24, 24), 32},
		{"split-leaves", twoChains(240, true), 16},
	}
	for _, tc := range cases {
		pt := partition.Build(tc.g, partition.Options{Fanout: 4, MaxLeafSize: tc.tau})
		got, want := BuildOnPartition(tc.g, pt, tc.tau), referenceBuild(tc.g, pt, tc.tau)
		for ni := range want.nodes {
			a, b := &got.nodes[ni], &want.nodes[ni]
			if !slices.Equal(a.mat, b.mat) || a.stride != b.stride ||
				!slices.Equal(a.ownIdx, b.ownIdx) || !slices.Equal(a.borders, b.borders) ||
				!slices.Equal(a.childBorders, b.childBorders) || !slices.Equal(a.childOff, b.childOff) {
				t.Errorf("%s: node %d differs from the reference", tc.name, ni)
			}
		}
	}

	// The split-leaves graph is there for its no-path cells: before
	// refinement, some border reaches some vertex of its own node only by
	// leaving it.
	g := twoChains(240, true)
	pt := partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: 16})
	x := bottomUp(g, pt, false)
	if !slices.ContainsFunc(x.nodes, func(n node) bool { return slices.Contains(n.mat, inf32) }) {
		t.Fatal("split-leaves: the constrained pass has no inf32 cell")
	}
}

// unitGrid is a rows x cols grid with every edge of weight 1, so nearly
// every Dijkstra settle and every min-plus cell is a tie.
func unitGrid(rows, cols int) *graph.Graph {
	n := rows * cols
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = float64(i%cols), float64(i/cols)
	}
	b := graph.NewBuilder(n, x, y)
	for i := int32(0); i < int32(n); i++ {
		if int(i)%cols+1 < cols {
			b.AddEdge(i, i+1, 1, 1)
		}
		if int(i)+cols < n {
			b.AddEdge(i, i+int32(cols), 1, 1)
		}
	}
	return b.Build("unit-grid")
}

// twoChains lays n vertices (n even) on a line and joins the even ones and
// the odd ones into two chains, bridged only at the two ends when bridged
// is set. Geometric bisection cuts the line into runs that hold pieces of
// both chains, so a leaf away from the ends is disconnected inside; without
// the bridges the whole graph is, and refined matrices keep inf32 cells.
func twoChains(n int, bridged bool) *graph.Graph {
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	b := graph.NewBuilder(n, x, y)
	for i := int32(0); i+2 < int32(n); i++ {
		b.AddEdge(i, i+2, 2+i%3, 3)
	}
	if bridged {
		b.AddEdge(0, 1, 1, 1)
		b.AddEdge(int32(n-2), int32(n-1), 1, 1)
	}
	return b.Build("two-chains")
}

// referenceBuild is BuildOnPartition as it was before refinement took
// closed form: border lists from per-node maps, every internal matrix by a
// Dijkstra that relaxes every clique arc, and a second, top-down Dijkstra
// pass per node that adds the parent's global border clique as arcs. Kept
// as the reference BuildOnPartition must reproduce field for field.
func referenceBuild(g *graph.Graph, pt *partition.Tree, tau int) *Index {
	x := refIndex{&Index{G: g, PT: pt, Tau: tau}}
	x.nodes = make([]node, len(pt.Nodes))
	x.computePositions()
	x.extractLeafCSRs()
	x.computeBorders()
	x.layoutInternalNodes()
	x.buildLeafMatrices(nil)
	x.buildInternalMatrices()
	x.refineTopDown()
	return x.Index
}

// refIndex carries the reference build's methods, which shadow the
// current ones of the same names.
type refIndex struct{ *Index }

func (x refIndex) computeBorders() {
	pt := x.PT
	isBorder := make([]map[int32]bool, len(pt.Nodes))
	for u := int32(0); u < int32(x.G.NumVertices()); u++ {
		ts, _ := x.G.Neighbors(u)
		leafU := pt.LeafOf[u]
		for _, v := range ts {
			if pt.LeafOf[v] == leafU {
				continue
			}
			n := leafU
			for n != -1 && !pt.Contains(n, v) {
				if isBorder[n] == nil {
					isBorder[n] = make(map[int32]bool)
				}
				isBorder[n][u] = true
				n = pt.Nodes[n].Parent
			}
		}
	}
	for ni := range x.nodes {
		m := isBorder[ni]
		if len(m) == 0 {
			continue
		}
		bs := make([]int32, 0, len(m))
		for v := range m {
			bs = append(bs, v)
		}
		slices.Sort(bs)
		x.nodes[ni].borders = bs
	}
}

func (x refIndex) layoutInternalNodes() {
	pt := x.PT
	for ni := range x.nodes {
		p := &pt.Nodes[ni]
		if p.IsLeaf() {
			// Leaf ownIdx: position of each border within the vertex list.
			n := &x.nodes[ni]
			n.ownIdx = make([]int32, len(n.borders))
			for i, b := range n.borders {
				n.ownIdx[i] = x.posInLeaf[b]
			}
			continue
		}
		n := &x.nodes[ni]
		n.childOff = make([]int32, len(p.Children)+1)
		for ci, c := range p.Children {
			n.childOff[ci+1] = n.childOff[ci] + int32(len(x.nodes[c].borders))
			n.childBorders = append(n.childBorders, x.nodes[c].borders...)
		}
		// Own borders are child borders too; locate each in childBorders.
		pos := make(map[int32]int32, len(n.childBorders))
		for i, v := range n.childBorders {
			if _, ok := pos[v]; !ok {
				pos[v] = int32(i)
			}
		}
		n.ownIdx = make([]int32, len(n.borders))
		for i, b := range n.borders {
			n.ownIdx[i] = pos[b]
		}
	}
}

// buildLeafMatrices computes each leaf's border-to-vertex matrix with
// Dijkstra constrained to the leaf subgraph. If extra is non-nil,
// extra(leafID) returns an additional border-to-border clique (global
// distances from the parent) injected into the search; this is the top-down
// refinement pass.
func (x refIndex) buildLeafMatrices(extra func(ni int32) []int32) {
	for _, li := range x.PT.Leaves() {
		x.buildLeafMatrix(li, extra)
	}
}

func (x refIndex) buildLeafMatrix(li int32, extra func(ni int32) []int32) {
	pt := x.PT
	verts := pt.Nodes[li].Vertices
	n := &x.nodes[li]
	nb := len(n.borders)
	nv := len(verts)
	n.stride = int32(nv)
	if n.mat == nil {
		n.mat = make([]int32, nb*nv)
	}
	off, tgt, w := x.leafOff[li], x.leafTgt[li], x.leafW[li]
	var clique []int32
	if extra != nil {
		clique = extra(li) // nb x nb global border distances, or nil
	}
	dist := make([]graph.Dist, nv)
	q := pqueue.NewQueue(nv)
	for bi := 0; bi < nb; bi++ {
		src := x.posInLeaf[n.borders[bi]]
		for i := range dist {
			dist[i] = graph.Inf
		}
		q.Reset()
		dist[src] = 0
		q.Push(src, 0)
		for !q.Empty() {
			it := q.Pop()
			v := it.ID
			d := graph.Dist(it.Key)
			if d > dist[v] {
				continue
			}
			for e := off[v]; e < off[v+1]; e++ {
				t := tgt[e]
				if nd := d + graph.Dist(w[e]); nd < dist[t] {
					dist[t] = nd
					q.Push(t, int64(nd))
				}
			}
			// Border clique relaxation (refinement pass only).
			if clique != nil {
				if vi := borderIndexOf(n, v); vi >= 0 {
					for bj := 0; bj < nb; bj++ {
						cw := clique[vi*nb+bj]
						if cw >= inf32 {
							continue
						}
						t := n.ownIdx[bj]
						if nd := d + graph.Dist(cw); nd < dist[t] {
							dist[t] = nd
							q.Push(t, int64(nd))
						}
					}
				}
			}
		}
		row := n.mat[bi*nv : (bi+1)*nv]
		for j := 0; j < nv; j++ {
			row[j] = clamp32(dist[j])
		}
	}
}

// buildInternalMatrices computes internal-node matrices bottom-up over the
// border graph of each node's children.
func (x refIndex) buildInternalMatrices() {
	for _, ni := range slices.Backward(x.PT.ByLevel()) {
		if !x.PT.Nodes[ni].IsLeaf() {
			x.buildInternalMatrix(ni, nil)
		}
	}
}

// buildInternalMatrix runs Dijkstra over node ni's border graph. extra, if
// non-nil, is a |borders|^2 clique of global distances between ni's own
// borders (from the parent) for the refinement pass.
func (x refIndex) buildInternalMatrix(ni int32, extra []int32) {
	pt := x.PT
	n := &x.nodes[ni]
	cb := n.childBorders
	ncb := len(cb)
	n.stride = int32(ncb)
	if n.mat == nil {
		n.mat = make([]int32, ncb*ncb)
	}
	pos := make(map[int32]int32, ncb)
	for i, v := range cb {
		pos[v] = int32(i)
	}
	// Border graph adjacency: child cliques + cut edges + optional own
	// clique. Built as flat slices.
	type arc struct {
		to int32
		w  int32
	}
	adj := make([][]arc, ncb)
	children := pt.Nodes[ni].Children
	for ci, c := range children {
		cn := &x.nodes[c]
		base := n.childOff[ci]
		nb := len(cn.borders)
		for i := 0; i < nb; i++ {
			for j := 0; j < nb; j++ {
				if i == j {
					continue
				}
				var w int32
				if pt.Nodes[c].IsLeaf() {
					w = cn.matAt(int32(i), cn.ownIdx[j])
				} else {
					w = cn.matAt(cn.ownIdx[i], cn.ownIdx[j])
				}
				if w < inf32 {
					adj[base+int32(i)] = append(adj[base+int32(i)], arc{base + int32(j), w})
				}
			}
		}
	}
	// Cut edges between children of ni: edge (u,v), both inside ni, in
	// different children. Endpoints are borders of their children, hence in
	// cb. A vertex may appear in several child blocks only if it were
	// shared, which vertex partitioning forbids, so pos is unambiguous.
	for _, u := range cb {
		ui := pos[u]
		ts, ws := x.G.Neighbors(u)
		for i, v := range ts {
			if vi, ok := pos[v]; ok && pt.PartOf(u, pt.Nodes[ni].Level+1) != pt.PartOf(v, pt.Nodes[ni].Level+1) {
				adj[ui] = append(adj[ui], arc{vi, ws[i]})
			}
		}
	}
	if extra != nil {
		nb := len(n.borders)
		for i := 0; i < nb; i++ {
			for j := 0; j < nb; j++ {
				if i == j || extra[i*nb+j] >= inf32 {
					continue
				}
				adj[n.ownIdx[i]] = append(adj[n.ownIdx[i]], arc{n.ownIdx[j], extra[i*nb+j]})
			}
		}
	}

	dist := make([]graph.Dist, ncb)
	q := pqueue.NewQueue(ncb)
	for src := 0; src < ncb; src++ {
		for i := range dist {
			dist[i] = graph.Inf
		}
		q.Reset()
		dist[src] = 0
		q.Push(int32(src), 0)
		for !q.Empty() {
			it := q.Pop()
			v := it.ID
			d := graph.Dist(it.Key)
			if d > dist[v] {
				continue
			}
			for _, a := range adj[v] {
				if nd := d + graph.Dist(a.w); nd < dist[a.to] {
					dist[a.to] = nd
					q.Push(a.to, int64(nd))
				}
			}
		}
		row := n.mat[src*ncb : (src+1)*ncb]
		for j := 0; j < ncb; j++ {
			row[j] = clamp32(dist[j])
		}
	}
}

// refineTopDown upgrades every matrix from subgraph-constrained to global
// distances, level by level from the root (whose matrix is already global).
func (x refIndex) refineTopDown() {
	for _, ni := range x.PT.ByLevel() {
		parent := x.PT.Nodes[ni].Parent
		if parent == -1 {
			continue // root is already global
		}
		clique := x.globalBorderClique(ni)
		if x.PT.Nodes[ni].IsLeaf() {
			x.buildLeafMatrix(ni, func(int32) []int32 { return clique })
		} else {
			x.buildInternalMatrix(ni, clique)
		}
	}
}
