// Package partition builds the hierarchical road-network partition consumed
// by both the G-tree and ROAD indexes. The paper uses the same multilevel
// partitioner for both methods (Section 7.2); here the multilevel scheme is
// geometric recursive bisection (road networks are planar, so median splits
// on the wider axis give balanced parts) followed by a KL-style boundary
// refinement pass that moves border vertices between sibling parts when that
// reduces the edge cut.
package partition

import (
	"cmp"
	"slices"
	"sort"

	"rnknn/internal/graph"
)

// Node is one node of the partition tree: a subgraph of its parent.
type Node struct {
	Parent   int32
	Children []int32
	// Vertices is the sorted vertex set of the subgraph. It is populated
	// for every node; leaf nodes are the only ones whose sets the indexes
	// iterate in hot paths, but construction uses the others too.
	Vertices []int32
	Level    int32
	// LeafLo and LeafHi delimit the DFS leaf-sequence range covered by this
	// node's subtree; together with Tree.LeafSeq they answer "is vertex v
	// inside this subgraph" in O(1).
	LeafLo, LeafHi int32
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Tree is the partition hierarchy. Nodes[0] is the root (the whole graph).
type Tree struct {
	Fanout int
	Nodes  []Node
	// LeafOf maps each vertex to its leaf node index.
	LeafOf []int32
	// LeafSeq maps each vertex to the DFS order index of its leaf.
	LeafSeq []int32
}

// Contains reports whether vertex v lies in the subgraph of node n.
func (t *Tree) Contains(n int32, v int32) bool {
	seq := t.LeafSeq[v]
	return seq >= t.Nodes[n].LeafLo && seq < t.Nodes[n].LeafHi
}

// AncestorAt returns the ancestor of node n at the given level (level 0 is
// the root). If n's level is below the requested level, n itself is
// returned.
func (t *Tree) AncestorAt(n int32, level int32) int32 {
	for t.Nodes[n].Level > level {
		n = t.Nodes[n].Parent
	}
	return n
}

// PartOf returns the ancestor node of vertex v at the given level.
func (t *Tree) PartOf(v int32, level int32) int32 {
	return t.AncestorAt(t.LeafOf[v], level)
}

// Height returns the maximum node level plus one.
func (t *Tree) Height() int {
	h := int32(0)
	for i := range t.Nodes {
		if t.Nodes[i].Level > h {
			h = t.Nodes[i].Level
		}
	}
	return int(h) + 1
}

// Leaves returns the leaf node indexes in DFS order.
func (t *Tree) Leaves() []int32 {
	var out []int32
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() {
			out = append(out, int32(i))
		}
	}
	sort.Slice(out, func(a, b int) bool { return t.Nodes[out[a]].LeafLo < t.Nodes[out[b]].LeafLo })
	return out
}

// ByLevel returns the node indexes in ascending level order, the root first;
// nodes of one level keep their index order.
func (t *Tree) ByLevel() []int32 {
	order := make([]int32, len(t.Nodes))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(t.Nodes[a].Level, t.Nodes[b].Level) })
	return order
}

// Borders returns, for every node N, its border vertices: the vertices of N
// with a neighbor outside N, sorted ascending. A vertex with a neighbor v in
// another leaf is a border of every ancestor of its leaf that does not
// contain v. Vertices are scanned in ascending order, so each list is built
// sorted, and a vertex's duplicates (one per cross edge) arrive adjacently
// and are dropped with a last-element check.
func (t *Tree) Borders(g *graph.Graph) [][]int32 {
	borders := make([][]int32, len(t.Nodes))
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		ts, _ := g.Neighbors(u)
		leafU := t.LeafOf[u]
		for _, v := range ts {
			if t.LeafOf[v] == leafU {
				continue
			}
			for n := leafU; n != -1 && !t.Contains(n, v); n = t.Nodes[n].Parent {
				if bs := borders[n]; len(bs) == 0 || bs[len(bs)-1] != u {
					borders[n] = append(bs, u)
				}
			}
		}
	}
	return borders
}

// Options configures Build.
type Options struct {
	// Fanout is the number of children per internal node (paper default 4).
	Fanout int
	// MaxLeafSize stops recursion once a part has at most this many
	// vertices (G-tree's tau). Zero means "use MaxLevels only".
	MaxLeafSize int
	// MaxLevels caps the hierarchy depth (ROAD's l); the root is level 0.
	// Zero means unlimited.
	MaxLevels int
	// RefinePasses is the number of KL boundary refinement sweeps per
	// split (default 2).
	RefinePasses int
}

func (o Options) withDefaults() Options {
	if o.Fanout < 2 {
		o.Fanout = 4
	}
	if o.MaxLeafSize <= 0 && o.MaxLevels <= 0 {
		o.MaxLeafSize = 128
	}
	if o.RefinePasses == 0 {
		o.RefinePasses = 2
	}
	return o
}

// Build constructs the partition tree for g.
func Build(g *graph.Graph, opts Options) *Tree {
	opts = opts.withDefaults()
	n := g.NumVertices()
	t := &Tree{
		Fanout:  opts.Fanout,
		LeafOf:  make([]int32, n),
		LeafSeq: make([]int32, n),
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	t.Nodes = append(t.Nodes, Node{Parent: -1, Vertices: all, Level: 0})
	leafCounter := int32(0)
	b := &builder{g: g, t: t, opts: opts, part: make([]int8, n)}
	b.recurse(0, &leafCounter)
	return t
}

type builder struct {
	g    *graph.Graph
	t    *Tree
	opts Options
	// part is a scratch per-vertex label reused across splits; labels are
	// meaningful only for the vertex subset being split.
	part []int8
}

func (b *builder) recurse(ni int32, leafCounter *int32) {
	node := &b.t.Nodes[ni]
	stop := false
	if b.opts.MaxLeafSize > 0 && len(node.Vertices) <= b.opts.MaxLeafSize {
		stop = true
	}
	if b.opts.MaxLevels > 0 && int(node.Level) >= b.opts.MaxLevels {
		stop = true
	}
	if len(node.Vertices) < 2*b.opts.Fanout {
		stop = true
	}
	if stop {
		node.LeafLo = *leafCounter
		node.LeafHi = *leafCounter + 1
		for _, v := range node.Vertices {
			b.t.LeafOf[v] = ni
			b.t.LeafSeq[v] = *leafCounter
		}
		*leafCounter++
		return
	}

	parts := b.split(node.Vertices, b.opts.Fanout)
	level := node.Level + 1
	lo := *leafCounter
	var childIdx []int32
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
		b.t.Nodes = append(b.t.Nodes, Node{Parent: ni, Vertices: p, Level: level})
		childIdx = append(childIdx, int32(len(b.t.Nodes)-1))
	}
	// node pointer may be stale after append; reacquire.
	b.t.Nodes[ni].Children = childIdx
	for _, ci := range childIdx {
		b.recurse(ci, leafCounter)
	}
	b.t.Nodes[ni].LeafLo = lo
	b.t.Nodes[ni].LeafHi = *leafCounter
}

// split partitions verts into up to fanout balanced parts by repeatedly
// bisecting the largest part geometrically and refining the boundary.
func (b *builder) split(verts []int32, fanout int) [][]int32 {
	parts := [][]int32{verts}
	for len(parts) < fanout {
		// Pick the largest part to bisect next.
		bi := 0
		for i := range parts {
			if len(parts[i]) > len(parts[bi]) {
				bi = i
			}
		}
		if len(parts[bi]) < 2 {
			break
		}
		a, c := b.bisect(parts[bi])
		parts[bi] = a
		parts = append(parts, c)
	}
	return parts
}

// bisect splits verts into two halves by the median of the wider coordinate
// axis, then runs KL-style boundary refinement.
func (b *builder) bisect(verts []int32) ([]int32, []int32) {
	g := b.g
	minX, maxX := g.X[verts[0]], g.X[verts[0]]
	minY, maxY := g.Y[verts[0]], g.Y[verts[0]]
	for _, v := range verts {
		if g.X[v] < minX {
			minX = g.X[v]
		}
		if g.X[v] > maxX {
			maxX = g.X[v]
		}
		if g.Y[v] < minY {
			minY = g.Y[v]
		}
		if g.Y[v] > maxY {
			maxY = g.Y[v]
		}
	}
	byX := maxX-minX >= maxY-minY
	sorted := append([]int32(nil), verts...)
	if byX {
		sort.Slice(sorted, func(i, j int) bool { return g.X[sorted[i]] < g.X[sorted[j]] })
	} else {
		sort.Slice(sorted, func(i, j int) bool { return g.Y[sorted[i]] < g.Y[sorted[j]] })
	}
	mid := len(sorted) / 2
	for _, v := range sorted[:mid] {
		b.part[v] = 0
	}
	for _, v := range sorted[mid:] {
		b.part[v] = 1
	}
	b.refine(sorted, mid)
	var a, c []int32
	for _, v := range sorted {
		if b.part[v] == 0 {
			a = append(a, v)
		} else {
			c = append(c, v)
		}
	}
	return a, c
}

// refine performs KL-style single-vertex moves: a vertex on the boundary is
// moved to the other side when that strictly reduces the number of cut edges
// and keeps the sides within 10% of balance. Edges leaving the vert subset
// are ignored (they are cut at a higher level regardless).
func (b *builder) refine(verts []int32, mid int) {
	g := b.g
	inSet := make(map[int32]bool, len(verts))
	for _, v := range verts {
		inSet[v] = true
	}
	sizes := [2]int{mid, len(verts) - mid}
	minSize := len(verts)*2/5 - 1
	for pass := 0; pass < b.opts.RefinePasses; pass++ {
		moved := 0
		for _, v := range verts {
			ts, _ := g.Neighbors(v)
			same, other := 0, 0
			for _, t := range ts {
				if !inSet[t] {
					continue
				}
				if b.part[t] == b.part[v] {
					same++
				} else {
					other++
				}
			}
			if other > same && sizes[b.part[v]]-1 > minSize {
				sizes[b.part[v]]--
				b.part[v] ^= 1
				sizes[b.part[v]]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// CutEdges returns the number of undirected edges of g whose endpoints lie
// in different leaf parts (a partition quality metric used in tests).
func (t *Tree) CutEdges(g *graph.Graph) int {
	cut := 0
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		ts, _ := g.Neighbors(u)
		for _, v := range ts {
			if v > u && t.LeafOf[u] != t.LeafOf[v] {
				cut++
			}
		}
	}
	return cut
}

// ExtractCSR builds a small standalone CSR subgraph over the given sorted
// vertex subset of g, keeping only edges with both endpoints inside. It
// returns the local offsets/targets/weights (weights taken from g's active
// weights) and the local index of each input vertex (identity order).
func ExtractCSR(g *graph.Graph, verts []int32) (offsets []int32, targets []int32, weights []int32) {
	local := make(map[int32]int32, len(verts))
	for i, v := range verts {
		local[v] = int32(i)
	}
	offsets = make([]int32, len(verts)+1)
	for i, v := range verts {
		ts, _ := g.Neighbors(v)
		cnt := int32(0)
		for _, t := range ts {
			if _, ok := local[t]; ok {
				cnt++
			}
		}
		offsets[i+1] = offsets[i] + cnt
	}
	m := offsets[len(verts)]
	targets = make([]int32, m)
	weights = make([]int32, m)
	pos := int32(0)
	for _, v := range verts {
		ts, ws := g.Neighbors(v)
		for j, t := range ts {
			if li, ok := local[t]; ok {
				targets[pos] = li
				weights[pos] = ws[j]
				pos++
			}
		}
	}
	return offsets, targets, weights
}
