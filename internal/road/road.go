// Package road implements ROAD — Route Overlay and Association Directory
// (Section 3.4): an Rnet hierarchy over the shared partitioner with
// precomputed border-to-border shortcuts, and an INE-style expansion that
// bypasses Rnets containing no objects by relaxing their shortcuts instead
// of exploring their interiors (Algorithms 5 and 6).
//
// Shortcuts of an Rnet store distances between its borders constrained to
// its subgraph. They are exactly the bottom-up half of the G-tree build over
// the same partition tree (Section 7.2), so they come from
// gtree.BorderCliques: leaf Rnets by Dijkstra on their subgraphs, inner
// Rnets over the border graph assembled from child cliques plus cut edges.
// Borders and the level order of Rnets come from the partition tree.
// Constrained distances suffice for correctness because the expansion
// itself stitches together path segments that leave and re-enter an Rnet
// through its borders.
//
// The Appendix A.3 improvement — not re-inserting shortcut targets that are
// already settled — is applied.
package road

import (
	"slices"

	"rnknn/internal/bitset"
	"rnknn/internal/graph"
	"rnknn/internal/gtree"
	"rnknn/internal/knn"
	"rnknn/internal/partition"
	"rnknn/internal/pqueue"
	"rnknn/internal/scratch"
)

const inf32 int32 = 1 << 30

// Index is a built ROAD index (the Route Overlay: partition hierarchy plus
// the global shortcut array).
type Index struct {
	G  *graph.Graph
	PT *partition.Tree
	// Levels is the hierarchy depth the index was built with.
	Levels int

	// Per partition-tree node: sorted borders, and a |B|x|B| row-major
	// shortcut matrix laid out in one global array (Section 6.2, choice 3):
	// shortcut row of border i of node n starts at matOff[n] + i*|B|.
	borders [][]int32
	shorts  []int32
	matOff  []int32

	// Route Overlay: for each vertex, the Rnets it borders with its border
	// index, ordered from the highest (shallowest) level down, packed in
	// CSR form. This is the per-vertex "shortcut tree" access path.
	roOff  []int32
	roRnet []int32
	roBi   []int32
}

// Build constructs the ROAD index for g with the paper's fanout of 4 and an
// Rnet hierarchy depth l derived from the network size (the paper's 7..11,
// capped at 14): l counts the divisions of |V| by 4 it takes to reach 16 or
// less, plus one. The deepest full level, l-1, then averages |V|/4^(l-1)
// vertices per Rnet, between 4 and 16 and usually well below 16: on NW
// (21,825 vertices) l = 7, and the partition holds 4,096 level-6 Rnets of
// about 5 vertices each plus 280 at level 7 of about 2.
func Build(g *graph.Graph) *Index {
	const fanout = 4
	levels := 1
	for size := float64(g.NumVertices()); size > 16 && levels < 14; size /= fanout {
		levels++
	}
	pt := partition.Build(g, partition.Options{Fanout: fanout, MaxLevels: levels})
	return BuildOnPartition(g, pt, levels)
}

// BuildOnPartition constructs ROAD over a pre-built partition tree.
func BuildOnPartition(g *graph.Graph, pt *partition.Tree, levels int) *Index {
	x := &Index{G: g, PT: pt, Levels: levels}
	x.layout()
	x.shorts = make([]int32, 0, x.matOff[len(pt.Nodes)])
	for _, clique := range gtree.BorderCliques(g, pt) {
		for _, w := range clique {
			if w == gtree.NoPath {
				w = inf32
			}
			x.shorts = append(x.shorts, w)
		}
	}
	x.buildRouteOverlay()
	return x
}

// layout derives what Build and Read share from the partition tree: every
// Rnet's borders and its shortcut matrix's offset in the global array.
func (x *Index) layout() {
	x.borders = x.PT.Borders(x.G)
	x.matOff = make([]int32, len(x.borders)+1)
	for ni, bs := range x.borders {
		x.matOff[ni+1] = x.matOff[ni] + int32(len(bs)*len(bs))
	}
}

// buildRouteOverlay packs, per vertex, the (Rnet, border index) pairs where
// the vertex is a border. Rnets are walked in level-ascending order, so each
// vertex's pairs come out highest level first (chain Rnets are nested).
func (x *Index) buildRouteOverlay() {
	n := x.G.NumVertices()
	x.roOff = make([]int32, n+1)
	for _, bs := range x.borders {
		for _, v := range bs {
			x.roOff[v+1]++
		}
	}
	for v := range n {
		x.roOff[v+1] += x.roOff[v]
	}
	x.roRnet = make([]int32, x.roOff[n])
	x.roBi = make([]int32, x.roOff[n])
	next := slices.Clone(x.roOff[:n])
	for _, ni := range x.PT.ByLevel() {
		for bi, v := range x.borders[ni] {
			x.roRnet[next[v]], x.roBi[next[v]] = ni, int32(bi)
			next[v]++
		}
	}
}

// Shortcut returns the within-Rnet distance from border index bi to border
// index bj of node ni.
func (x *Index) Shortcut(ni, bi, bj int32) graph.Dist {
	nb := int32(len(x.borders[ni]))
	w := x.shorts[x.matOff[ni]+bi*nb+bj]
	if w >= inf32 {
		return graph.Inf
	}
	return graph.Dist(w)
}

// SizeBytes estimates the index footprint (shortcut array dominates).
func (x *Index) SizeBytes() int {
	total := 4 * (len(x.shorts) + len(x.matOff) + len(x.roOff) + len(x.roRnet) + len(x.roBi))
	for _, b := range x.borders {
		total += len(b) * 4
	}
	return total
}

// AssociationDirectory is ROAD's decoupled object index: one bit per Rnet
// recording whether the Rnet's subgraph contains any object (Section 3.4,
// Figure 18 measures its size and build time). Vertex membership — the
// per-settle IsObject test — is read from the object set the directory was
// built over, so the bits are all a directory owns.
//
// A directory is immutable: for the frequently-changing object sets of
// Section 2.2 (e.g. parking spaces), Next derives the directory of the next
// object set from this one in O(delta x hierarchy depth), so an
// epoch-versioned object store can carry the next epoch's directory while
// queries still read the previous one. Occupancy needs no per-Rnet counts:
// a set bit implies every ancestor's bit is set, and an Rnet empties exactly
// when no vertex (leaf) or child (inner) under it is still occupied.
type AssociationDirectory struct {
	objs *knn.ObjectSet // object vertices (shared with the binding)
	has  bitset.Set     // Rnet occupancy, the Algorithm 5 test
}

// NewAssociationDirectory builds the directory for objs.
func (x *Index) NewAssociationDirectory(objs *knn.ObjectSet) *AssociationDirectory {
	ad := &AssociationDirectory{objs: objs, has: *bitset.New(len(x.PT.Nodes))}
	for _, v := range objs.Vertices() {
		ad.add(x, v)
	}
	return ad
}

// Next returns the directory of objs, the successor of ad's object set whose
// effective delta is added and removed (knn.ObjectSet.WithDelta). ad is left
// untouched: a reader of it keeps answering from its own set.
func (ad *AssociationDirectory) Next(x *Index, objs *knn.ObjectSet, added, removed []int32) *AssociationDirectory {
	next := &AssociationDirectory{objs: objs, has: *ad.has.Clone()}
	for _, v := range removed {
		next.remove(x, v)
	}
	for _, v := range added {
		next.add(x, v)
	}
	return next
}

// add marks v's ancestor chain occupied, stopping at the first Rnet that
// already is (its ancestors then are too).
func (ad *AssociationDirectory) add(x *Index, v int32) {
	for n := x.PT.LeafOf[v]; n != -1 && !ad.has.Get(n); n = x.PT.Nodes[n].Parent {
		ad.has.Set(n)
	}
}

// remove clears the occupancy bits v's departure from ad.objs empties: the
// leaf Rnet if none of its vertices is an object any more, then each
// ancestor none of whose children is occupied, stopping at the first Rnet
// that stays occupied.
func (ad *AssociationDirectory) remove(x *Index, v int32) {
	nodes := x.PT.Nodes
	leaf := x.PT.LeafOf[v]
	for _, u := range nodes[leaf].Vertices {
		if ad.objs.Contains(u) {
			return
		}
	}
	ad.has.Clear(leaf)
	for n := nodes[leaf].Parent; n != -1; n = nodes[n].Parent {
		for _, c := range nodes[n].Children {
			if ad.has.Get(c) {
				return
			}
		}
		ad.has.Clear(n)
	}
}

// HasObjects reports whether Rnet ni contains any object.
func (ad *AssociationDirectory) HasObjects(ni int32) bool { return ad.has.Get(ni) }

// IsObject reports whether v is an object vertex.
func (ad *AssociationDirectory) IsObject(v int32) bool { return ad.objs.Contains(v) }

// SizeBytes estimates the directory's footprint including object storage
// (the object set it reads membership from, counted once).
func (ad *AssociationDirectory) SizeBytes() int {
	return ad.objs.SizeBytes() + ad.has.Capacity()/8
}

// KNN is the ROAD kNN algorithm (Algorithm 5) bound to an association
// directory. Not safe for concurrent use. All transient search state lives
// on the method value, so a warm query performs no heap allocations.
type KNN struct {
	idx  *Index
	ad   *AssociationDirectory
	q    *pqueue.IndexedQueue
	dist *scratch.Dists
	// qAnc[level] is the ancestor Rnet of the query leaf at that level (one
	// entry per tree level), used to reject bypassing any Rnet containing
	// the query in O(1).
	qAnc []int32
	// via[v] names the Rnet whose shortcut row last lowered v's label by its
	// level, or is 0 when an edge did (see bypass). The Rnets a vertex
	// borders lie on its leaf's ancestor chain, one per level, so the level
	// is enough; the root, level 0, has no borders. Written by every push,
	// so a settled vertex's entry is always from the current query.
	via []uint8

	// interrupt, when non-nil, is polled every knn.InterruptStride settled
	// vertices; a true return aborts the scan early.
	interrupt func() bool

	out     []knn.Result
	collect func(knn.Result) bool

	// VisitedVertices counts vertices settled by the last query,
	// VerticesBypassed the total size of the Rnets it bypassed via shortcuts
	// (Figure 9b) and RowsRelaxed the shortcut rows it relaxed.
	VisitedVertices, VerticesBypassed, RowsRelaxed int
}

// NewKNN returns the ROAD kNN method.
func NewKNN(idx *Index, ad *AssociationDirectory) *KNN {
	x := &KNN{
		idx:  idx,
		ad:   ad,
		q:    pqueue.NewIndexedQueue(idx.G.NumVertices()),
		dist: scratch.NewDists(idx.G.NumVertices()),
		qAnc: make([]int32, idx.PT.Height()),
		via:  make([]uint8, idx.G.NumVertices()),
	}
	x.collect = func(r knn.Result) bool {
		x.out = append(x.out, r)
		return true
	}
	return x
}

// Name implements knn.Method.
func (x *KNN) Name() string { return "ROAD" }

// SetObjects swaps the association directory.
func (x *KNN) SetObjects(ad *AssociationDirectory) { x.ad = ad }

// SetInterrupt implements knn.Interruptible.
func (x *KNN) SetInterrupt(check func() bool) { x.interrupt = check }

// KNN implements knn.Method.
func (x *KNN) KNN(qv int32, k int) []knn.Result {
	return x.KNNAppend(qv, k, make([]knn.Result, 0, k))
}

// KNNAppend implements knn.Method's zero-allocation form.
func (x *KNN) KNNAppend(qv int32, k int, dst []knn.Result) []knn.Result {
	x.out = dst
	x.KNNStream(qv, k, x.collect)
	dst = x.out
	x.out = nil
	return dst
}

// KNNStream implements knn.Streamer: the Rnet-bypassing expansion settles
// vertices in nondecreasing distance order, so objects are final (and
// yielded) at settle time; a false return from yield abandons the rest of
// the expansion.
func (x *KNN) KNNStream(qv int32, k int, yield func(knn.Result) bool) {
	pt := x.idx.PT
	x.dist.Reset()
	x.q.Reset()
	x.VisitedVertices, x.VerticesBypassed, x.RowsRelaxed = 0, 0, 0

	leafQ := pt.LeafOf[qv]
	for i := range x.qAnc {
		x.qAnc[i] = -1
	}
	for n := leafQ; n != -1; n = pt.Nodes[n].Parent {
		x.qAnc[pt.Nodes[n].Level] = n
	}
	// Once every object is settled nothing is left to find.
	k = min(k, x.ad.objs.Len())
	found := 0
	x.push(qv, 0, 0)
	for !x.q.Empty() && found < k {
		it := x.q.Pop()
		v, d := it.ID, graph.Dist(it.Key)
		x.VisitedVertices++
		if x.interrupt != nil && x.VisitedVertices%knn.InterruptStride == 0 && x.interrupt() {
			break
		}
		if x.ad.IsObject(v) {
			found++
			if !yield(knn.Result{Vertex: v, Dist: d}) {
				break
			}
			if found == k {
				break
			}
		}
		x.relaxShortcuts(v, d, qv, leafQ)
	}
}

var (
	_ knn.Method        = (*KNN)(nil)
	_ knn.Streamer      = (*KNN)(nil)
	_ knn.Interruptible = (*KNN)(nil)
)

// relaxShortcuts walks v's Route Overlay entries from the highest level
// down (Algorithm 6's shortcut-tree descent): the first object-less Rnet
// that v borders and that does not contain the query is bypassed via its
// shortcuts; with no such Rnet, v's ordinary edges are relaxed.
func (x *KNN) relaxShortcuts(v int32, d graph.Dist, qv, leafQ int32) {
	idx := x.idx
	pt := idx.PT
	if pt.LeafOf[v] == leafQ {
		x.relaxEdges(v, d, -1)
		return
	}
	for e := idx.roOff[v]; e < idx.roOff[v+1]; e++ {
		r := idx.roRnet[e]
		lvl := pt.Nodes[r].Level
		if x.qAnc[lvl] == r {
			continue // Rnet contains the query; cannot bypass
		}
		if !x.ad.HasObjects(r) {
			x.bypass(r, idx.roBi[e], v, d)
			return
		}
	}
	x.relaxEdges(v, d, -1)
}

// bypass relaxes the shortcuts from border bi of Rnet r plus v's ordinary
// edges that leave r.
//
// The shortcut row is skipped when v's label came from another border's row
// of r: that border b relaxed its whole row, so every border k of r holds a
// label <= d_b + S[b][k], and S, shortest distances inside r, obeys the
// triangle inequality, so d + S[v][k] = d_b + S[b][v] + S[v][k] >=
// d_b + S[b][k]. push refuses a label it cannot strictly lower, so not one
// push of the row could succeed: the heap sees the same pushes either way.
func (x *KNN) bypass(r, bi, v int32, d graph.Dist) {
	idx := x.idx
	if lvl := uint8(idx.PT.Nodes[r].Level); x.via[v] != lvl {
		bs := idx.borders[r]
		nb := int32(len(bs))
		base := idx.matOff[r] + bi*nb
		for bj := int32(0); bj < nb; bj++ {
			// The Appendix A.3 improvement (never re-insert a settled border)
			// needs no test of its own: push refuses any label it cannot lower,
			// and that covers v itself (shortcut 0) and every settled border.
			if w := idx.shorts[base+bj]; w < inf32 {
				x.push(bs[bj], d+graph.Dist(w), lvl)
			}
		}
		x.RowsRelaxed++
	}
	x.relaxEdges(v, d, r)
	x.VerticesBypassed += len(idx.PT.Nodes[r].Vertices)
}

// relaxEdges relaxes v's ordinary edges; when skipInside >= 0, edges whose
// target lies inside that Rnet are skipped (they are covered by shortcuts).
func (x *KNN) relaxEdges(v int32, d graph.Dist, skipInside int32) {
	g := x.idx.G
	pt := x.idx.PT
	ts, ws := g.Neighbors(v)
	for i, t := range ts {
		if skipInside >= 0 && pt.Contains(skipInside, t) {
			continue
		}
		x.push(t, d+graph.Dist(ws[i]), 0)
	}
}

// push queues t at distance nd, or lowers its queued key, unless its label
// is already as small (see scratch.Dists for why that also keeps settled
// vertices out), recording via, the level of the Rnet whose shortcut row
// offered nd (0 for an edge). The queue holds each vertex once, so every
// pop settles one: a border that several rows offer a lower label moves up
// in place instead of leaving a stale entry behind.
func (x *KNN) push(t int32, nd graph.Dist, via uint8) {
	if x.dist.Lower(t, nd) {
		x.via[t] = via
		x.q.PushOrDecrease(t, int64(nd))
	}
}

// BordersOf returns the border vertices of Rnet ni (tests and statistics).
func (x *Index) BordersOf(ni int32) []int32 { return x.borders[ni] }
