// Package gtree implements the G-tree index (Section 3.5): a hierarchy of
// subgraphs over the shared partition tree, with border-to-border distance
// matrices stored as flat arrays grouped by child (the cache-friendly layout
// of Section 6.1), an assembly-based distance oracle with per-source
// materialization (the MGtree of Section 5), the kNN algorithm of Algorithm
// 3 with the improved leaf search of Algorithm 4 (Appendix A.2.1), and the
// Occurrence List object index.
//
// Distance matrices are built in two phases. A bottom-up pass computes
// distances constrained to each node's subgraph: leaves by Dijkstra on the
// leaf subgraph, internal nodes by Dijkstra over the border graph assembled
// from child matrices plus cut edges. Restricted to each node's own
// borders, this pass is BorderCliques, which ROAD stores as its shortcuts.
// A top-down pass then refines every matrix to global network distances in
// closed form, as min-plus products with the parent's already global
// border-to-border distances (see refineTopDown). Global matrices make
// LCA-based assembly exact for arbitrary partitions.
package gtree

import (
	"math"
	"slices"

	"rnknn/internal/graph"
	"rnknn/internal/partition"
	"rnknn/internal/pqueue"
	"rnknn/internal/scratch"
)

// inf32 is the matrix sentinel for "no path" (matrices store int32 cells to
// maximize cache density, Section 6.1).
const inf32 int32 = math.MaxInt32 / 4

// Index is a built G-tree.
type Index struct {
	G  *graph.Graph
	PT *partition.Tree
	// Tau is the leaf capacity the index was built with.
	Tau int

	nodes []node
	// posInLeaf[v] is the index of v within its leaf's vertex list.
	posInLeaf []int32
	// Per-leaf local CSR subgraphs, extracted once at build time and shared
	// by leaf matrix construction and the per-query leaf searches.
	leafOff [][]int32
	leafTgt [][]int32
	leafW   [][]int32

	// Query-time matrix layout (Section 6.1 ablation; see ablation.go).
	layout     MatrixLayout
	builtinMap map[uint64]int32
	openAddr   *openTable
}

type node struct {
	// borders are the node's border vertices (vertices with an edge leaving
	// the node's subgraph), sorted ascending. Empty for the root.
	borders []int32
	// For internal nodes: childBorders is the concatenation of the
	// children's border lists in child order; childOff[i] is the start of
	// child i's block; ownIdx are the positions of this node's own borders
	// within childBorders. mat is the |childBorders| x |childBorders|
	// row-major distance matrix.
	//
	// For leaf nodes: mat is |borders| x |vertices| row-major, with columns
	// ordered as the partition leaf's vertex list; ownIdx are the positions
	// of the borders within that vertex list.
	childBorders []int32
	childOff     []int32
	ownIdx       []int32
	mat          []int32
	stride       int32
}

func (n *node) matAt(i, j int32) int32 { return n.mat[i*n.stride+j] }

// Build constructs a G-tree over g with the paper's fanout of 4 and a leaf
// capacity tau that scales with the network size as the paper's does
// (64..512).
func Build(g *graph.Graph) *Index {
	var tau int
	switch n := g.NumVertices(); {
	case n <= 2_000:
		tau = 64
	case n <= 10_000:
		tau = 128
	case n <= 70_000:
		tau = 256
	default:
		tau = 512
	}
	pt := partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: tau})
	return BuildOnPartition(g, pt, tau)
}

// BuildOnPartition constructs a G-tree over a pre-built partition tree (the
// experiments share one partition between G-tree and ROAD, Section 7.2).
func BuildOnPartition(g *graph.Graph, pt *partition.Tree, tau int) *Index {
	x := bottomUp(g, pt, false)
	x.Tau = tau
	x.refineTopDown()
	return x
}

// BorderCliques returns, for every node of pt, the row-major |B| x |B|
// distances between its borders (in pt.Borders order) constrained to the
// node's subgraph: the bottom-up half of the G-tree build, and ROAD's Rnet
// shortcuts (Section 3.4). A cell with no path inside the node holds
// math.MaxInt32/4. Only the rows of each node's own borders are computed,
// since they are all a parent reads.
func BorderCliques(g *graph.Graph, pt *partition.Tree) [][]int32 {
	x := bottomUp(g, pt, true)
	out := make([][]int32, len(x.nodes))
	for ni := range x.nodes {
		n := &x.nodes[ni]
		c := make([]int32, 0, len(n.ownIdx)*len(n.ownIdx))
		for i := range n.ownIdx {
			row := x.ownRow(int32(ni), i)
			for _, j := range n.ownIdx {
				c = append(c, n.matAt(row, j))
			}
		}
		out[ni] = c
	}
	return out
}

// bottomUp lays a G-tree out over pt and fills every node's matrix with
// distances constrained to the node's subgraph, children before parents.
// With ownOnly, an internal node computes only the rows of its own borders;
// otherwise it computes one row per child border.
func bottomUp(g *graph.Graph, pt *partition.Tree, ownOnly bool) *Index {
	x := &Index{G: g, PT: pt, nodes: make([]node, len(pt.Nodes))}
	x.computePositions()
	x.extractLeafCSRs()
	for ni, bs := range pt.Borders(g) {
		x.nodes[ni].borders = bs
	}
	pos := scratch.NewMap32(g.NumVertices())
	x.layoutInternalNodes(pos)
	for _, ni := range slices.Backward(pt.ByLevel()) {
		n := &x.nodes[ni]
		if pt.Nodes[ni].IsLeaf() {
			x.buildLeafMatrix(ni)
			continue
		}
		rows := n.ownIdx
		if !ownOnly {
			rows = make([]int32, len(n.childBorders))
			for i := range rows {
				rows[i] = int32(i)
			}
		}
		x.buildInternalMatrix(ni, pos, rows)
	}
	return x
}

func (x *Index) computePositions() {
	x.posInLeaf = make([]int32, x.G.NumVertices())
	for _, li := range x.PT.Leaves() {
		for i, v := range x.PT.Nodes[li].Vertices {
			x.posInLeaf[v] = int32(i)
		}
	}
}

// extractLeafCSRs caches the local CSR of every leaf subgraph.
func (x *Index) extractLeafCSRs() {
	n := len(x.PT.Nodes)
	x.leafOff = make([][]int32, n)
	x.leafTgt = make([][]int32, n)
	x.leafW = make([][]int32, n)
	for _, li := range x.PT.Leaves() {
		off, tgt, w := partition.ExtractCSR(x.G, x.PT.Nodes[li].Vertices)
		x.leafOff[li], x.leafTgt[li], x.leafW[li] = off, tgt, w
	}
}

// layoutInternalNodes fills childOff, childBorders and ownIdx. pos is a
// vertex-keyed scratch map, reset per node.
func (x *Index) layoutInternalNodes(pos *scratch.Map32) {
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
		// Own borders are child borders too; locate each in childBorders
		// (vertex partitioning puts every vertex in one child block).
		pos.Reset()
		for i, v := range n.childBorders {
			pos.Put(v, int32(i))
		}
		n.ownIdx = make([]int32, len(n.borders))
		for i, b := range n.borders {
			n.ownIdx[i], _ = pos.Get(b)
		}
	}
}

// buildLeafMatrix computes leaf li's border-to-vertex matrix with Dijkstra
// constrained to the leaf subgraph.
func (x *Index) buildLeafMatrix(li int32) {
	pt := x.PT
	verts := pt.Nodes[li].Vertices
	n := &x.nodes[li]
	nb := len(n.borders)
	nv := len(verts)
	n.stride = int32(nv)
	n.mat = make([]int32, nb*nv)
	off, tgt, w := x.leafOff[li], x.leafTgt[li], x.leafW[li]
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
		}
		row := n.mat[bi*nv : (bi+1)*nv]
		for j := 0; j < nv; j++ {
			row[j] = clamp32(dist[j])
		}
	}
}

// borderIndexOf returns the border index of the leaf-local vertex position
// v, or -1 when v is not a border. Leaves have few borders; linear scan.
func borderIndexOf(n *node, v int32) int {
	for i, p := range n.ownIdx {
		if p == v {
			return i
		}
	}
	return -1
}

// ownRow returns the matrix row of node ni's own border i: a leaf has one row
// per border, an internal node one per child border.
func (x *Index) ownRow(ni int32, i int) int32 {
	if x.PT.Nodes[ni].IsLeaf() {
		return int32(i)
	}
	return x.nodes[ni].ownIdx[i]
}

// buildInternalMatrix runs Dijkstra over node ni's border graph — the child
// borders, joined by each child's clique of constrained border distances and
// by the cut edges between children — from each source in rows, a position
// in childBorders, filling that source's matrix row. G-tree's queries read
// every row; a parent reads only its children's own-border rows. pos is a
// vertex-keyed scratch map.
//
// A child's clique holds shortest distances within the child, so it is
// closed under the triangle inequality. A vertex whose label came from a
// clique hop has therefore had its own clique relaxed already, by the vertex
// the hop came from, and relaxes only its cut edges; one without cut edges
// has nothing left to relax and is never queued. viaClique records how each
// label was last lowered: a strict improvement through a cut edge clears
// it, and a tie keeps it.
func (x *Index) buildInternalMatrix(ni int32, pos *scratch.Map32, rows []int32) {
	pt := x.PT
	n := &x.nodes[ni]
	cb := n.childBorders
	ncb := len(cb)
	n.stride = int32(ncb)
	n.mat = make([]int32, ncb*ncb)
	pos.Reset()
	for i, v := range cb {
		pos.Put(v, int32(i))
	}
	// Vertex v lies in child block[v]; clique[rowOff[v]:] starts its row of
	// that child's clique, whose columns are the child's block of cb.
	block := make([]int32, ncb)
	rowOff := make([]int32, ncb)
	var clique []int32
	for ci, c := range pt.Nodes[ni].Children {
		cn := &x.nodes[c]
		base := n.childOff[ci]
		for i := range cn.borders {
			r := x.ownRow(c, i)
			block[base+int32(i)], rowOff[base+int32(i)] = int32(ci), int32(len(clique))
			for _, j := range cn.ownIdx {
				clique = append(clique, cn.matAt(r, j))
			}
		}
	}
	// Cut edges between children of ni: edge (u,v), both inside ni, in
	// different children. Endpoints are borders of their children, hence in
	// cb, and vertex partitioning puts each in exactly one child block.
	cutOff := make([]int32, ncb+1)
	var cutTo, cutW []int32
	for ui, u := range cb {
		ts, ws := x.G.Neighbors(u)
		for i, v := range ts {
			if vi, ok := pos.Get(v); ok && block[vi] != block[ui] {
				cutTo, cutW = append(cutTo, vi), append(cutW, ws[i])
			}
		}
		cutOff[ui+1] = int32(len(cutTo))
	}

	dist := make([]graph.Dist, ncb)
	viaClique := make([]bool, ncb)
	q := pqueue.NewQueue(ncb)
	for _, src := range rows {
		for i := range dist {
			dist[i], viaClique[i] = graph.Inf, false
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
			if !viaClique[v] {
				base := n.childOff[block[v]]
				row := clique[rowOff[v] : rowOff[v]+n.childOff[block[v]+1]-base]
				for j, w := range row {
					t := base + int32(j)
					if nd := d + graph.Dist(w); w < inf32 && nd < dist[t] {
						dist[t], viaClique[t] = nd, true
						if cutOff[t] < cutOff[t+1] {
							q.Push(t, int64(nd))
						}
					}
				}
			}
			for e := cutOff[v]; e < cutOff[v+1]; e++ {
				t := cutTo[e]
				if nd := d + graph.Dist(cutW[e]); nd < dist[t] {
					dist[t], viaClique[t] = nd, false
					q.Push(t, int64(nd))
				}
			}
		}
		row := n.mat[int(src)*ncb : int(src+1)*ncb]
		for j := 0; j < ncb; j++ {
			row[j] = clamp32(dist[j])
		}
	}
}

// refineTopDown upgrades every matrix from subgraph-constrained to global
// distances, level by level from the root (whose matrix is already global).
// Let G be the parent's global distances between node N's own borders
// o_1..o_k (G[i,i] = 0). Each refinement is then a min-plus product:
//
//   - Leaf: L*[s,v] = min_j G[s,j] + L[j,v]. After the last border o_j it
//     visits, a global shortest path from border s to v stays inside the
//     leaf, and its part up to o_j is no shorter than G[s,j].
//   - Internal: M*[a,b] = min(M[a,b], min_ij M[a,o_i] + G[i,j] + M[o_j,b]).
//     A path that leaves N goes out through an own border o_i and comes
//     back in through one, o_j; before o_i and after o_j it stays inside N.
//     It is evaluated as T = G·M[o,:], then M* = min(M, M[:,o]·T).
func (x *Index) refineTopDown() {
	var tmp []int32
	for _, ni := range x.PT.ByLevel() {
		if x.PT.Nodes[ni].Parent == -1 {
			continue // root is already global
		}
		g := x.globalBorderClique(ni)
		n := &x.nodes[ni]
		k, cols := len(n.ownIdx), int(n.stride)
		if x.PT.Nodes[ni].IsLeaf() {
			tmp = append(tmp[:0], n.mat...)
			minPlusInto(n.mat, g, tmp, k, cols)
			continue
		}
		own := make([]int32, 0, k*cols)   // M[o,:]
		exits := make([]int32, 0, cols*k) // M[:,o]
		for _, o := range n.ownIdx {
			own = append(own, n.mat[int(o)*cols:][:cols]...)
		}
		for a := 0; a < cols; a++ {
			for _, o := range n.ownIdx {
				exits = append(exits, n.mat[a*cols+int(o)])
			}
		}
		t := slices.Clone(own)
		minPlusInto(t, g, own, k, cols)
		minPlusInto(n.mat, exits, t, k, cols)
	}
}

// minPlusInto lowers dst (r x c, row-major) to min(dst, a·b) in the min-plus
// semiring, for a (r x k) and b (k x c). Sums accumulate in int64 and are
// clamped back to inf32, so no-path cells stay inf32. dst must not alias b.
func minPlusInto(dst, a, b []int32, k, c int) {
	acc := make([]graph.Dist, c)
	for r := 0; r*c < len(dst); r++ {
		row := dst[r*c : (r+1)*c]
		for j, v := range row {
			acc[j] = graph.Dist(v)
		}
		for i, w := range a[r*k : (r+1)*k] {
			if w >= inf32 {
				continue
			}
			bi := b[i*c:][:len(acc)]
			for j := range acc {
				if s := graph.Dist(w) + graph.Dist(bi[j]); s < acc[j] {
					acc[j] = s
				}
			}
		}
		for j := range row {
			row[j] = clamp32(acc[j])
		}
	}
}

// globalBorderClique extracts the |B|^2 global distances between node ni's
// own borders from its parent's (already refined) matrix. Node ni's borders
// form a contiguous block of the parent's childBorders.
func (x *Index) globalBorderClique(ni int32) []int32 {
	pt := x.PT
	parent := pt.Nodes[ni].Parent
	pn := &x.nodes[parent]
	ci := childIndex(pt, parent, ni)
	base := pn.childOff[ci]
	nb := len(x.nodes[ni].borders)
	out := make([]int32, nb*nb)
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			out[i*nb+j] = pn.matAt(base+int32(i), base+int32(j))
		}
	}
	return out
}

func childIndex(pt *partition.Tree, parent, child int32) int {
	for i, c := range pt.Nodes[parent].Children {
		if c == child {
			return i
		}
	}
	panic("gtree: child not found under parent")
}

// SizeBytes estimates the index memory footprint (matrices dominate).
func (x *Index) SizeBytes() int {
	total := len(x.posInLeaf) * 4
	for i := range x.nodes {
		n := &x.nodes[i]
		total += 4 * (len(n.borders) + len(n.childBorders) + len(n.childOff) + len(n.ownIdx) + len(n.mat))
	}
	return total
}

// Borders returns the border vertices of tree node ni (tests and stats).
func (x *Index) Borders(ni int32) []int32 { return x.nodes[ni].borders }

// NumNodes returns the number of tree nodes.
func (x *Index) NumNodes() int { return len(x.nodes) }

func clamp32(d graph.Dist) int32 {
	if d >= graph.Dist(inf32) {
		return inf32
	}
	return int32(d)
}
