package gtree

import (
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/pqueue"
)

// KNN is the G-tree kNN algorithm (Algorithm 3) bound to an occurrence
// list. With ImprovedLeaf (the default) the source-leaf search follows
// Algorithm 4 (Appendix A.2.1), stopping after k settled leaf objects; the
// original behaviour — exhausting all leaf objects and checking both path
// types for each — is kept for the Figure 22 comparison.
//
// The method value owns its transient query memory — the Algorithm 3
// queue and a reusable materialized Source (stamped border-distance cache,
// suspendable leaf scan) — so a warm ImprovedLeaf query performs no heap
// allocations.
type KNN struct {
	idx *Index
	ol  *OccurrenceList
	// ImprovedLeaf selects the Algorithm 4 leaf search (default true).
	ImprovedLeaf bool

	src     Source
	q       *pqueue.Queue
	out     []knn.Result
	collect func(knn.Result) bool

	// interrupt, when non-nil, is polled once per iteration of the
	// Algorithm 3 loop (an iteration can cost a border-matrix assembly, so no
	// stride is needed there) and every knn.InterruptStride settled vertices
	// of the source-leaf search; a true return stops the scan early (see
	// knn.Interruptible).
	interrupt func() bool

	// PathCost reports the border-to-border additions of the last query
	// (Figure 9b).
	PathCost int
}

// NewKNN returns the G-tree kNN method. The occurrence list is the decoupled
// object index; swap it with SetObjects for a different object set.
func NewKNN(idx *Index, ol *OccurrenceList) *KNN {
	x := &KNN{idx: idx, ol: ol, ImprovedLeaf: true, q: pqueue.NewQueue(64)}
	x.collect = func(r knn.Result) bool {
		x.out = append(x.out, r)
		return true
	}
	return x
}

// Name implements knn.Method.
func (x *KNN) Name() string {
	if x.ImprovedLeaf {
		return "Gtree"
	}
	return "Gtree-OrigLeaf"
}

// SetObjects swaps the occurrence list.
func (x *KNN) SetObjects(ol *OccurrenceList) { x.ol = ol }

// SetInterrupt implements knn.Interruptible.
func (x *KNN) SetInterrupt(check func() bool) { x.interrupt = check }

// queue ids: vertices are encoded as themselves (>= 0), tree nodes as
// -(node+1).
func encodeNode(ni int32) int32 { return -(ni + 1) }
func decodeNode(id int32) int32 { return -id - 1 }
func isNodeID(id int32) bool    { return id < 0 }

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

// KNNStream implements knn.Streamer. The Algorithm 3 queue pops vertices
// in nondecreasing exact network distance, and the Algorithm 4 leaf search
// settles its pre-border objects in the same global order (every path out
// of the source leaf crosses a border, so nothing outside can be closer),
// which makes every appended result final at append time: it is yielded
// immediately instead of buffered. A false return from yield, or a true one
// from the installed interrupt check, abandons the remaining search.
func (x *KNN) KNNStream(qv int32, k int, yield func(knn.Result) bool) {
	idx := x.idx
	pt := idx.PT
	x.src.Reset(idx, qv)
	src := &x.src
	q := x.q
	q.Reset()
	found := 0
	stopped := false

	leafQ := pt.LeafOf[qv]
	if x.ol.Count(leafQ) > 0 {
		if x.ImprovedLeaf {
			found, stopped = x.leafSearchScan(src, k, q, yield)
		} else {
			x.leafSearchOriginal(src, qv, q)
		}
	}

	const root = int32(0)
	tn := leafQ
	tmin := graph.Inf
	if tn != root {
		tmin = src.MinBorderDist(tn)
	}

	for !stopped && found < k && (!q.Empty() || tn != root) {
		if x.interrupt != nil && x.interrupt() {
			break
		}
		if q.Empty() {
			tn, tmin = x.advanceT(src, q, tn)
		}
		if q.Empty() {
			continue
		}
		it := q.Pop()
		d := graph.Dist(it.Key)
		if d > tmin {
			tn, tmin = x.advanceT(src, q, tn)
			q.Push(it.ID, it.Key)
			continue
		}
		if !isNodeID(it.ID) {
			found++
			if !yield(knn.Result{Vertex: it.ID, Dist: d}) {
				stopped = true
			}
			continue
		}
		ni := decodeNode(it.ID)
		if pt.Nodes[ni].IsLeaf() {
			x.enqueueLeafObjects(src, ni, q)
		} else {
			for _, c := range pt.Nodes[ni].Children {
				if x.ol.count[c] > 0 {
					q.Push(encodeNode(c), int64(src.MinBorderDist(c)))
				}
			}
		}
	}
	x.PathCost = src.PathCost
}

// advanceT climbs the active subtree pointer one level (the UpdateT step of
// Algorithm 3): enqueue the occupied siblings (nonzero count) of the
// previous subtree and return the new (node, min-border-distance) bound.
func (x *KNN) advanceT(src *Source, q *pqueue.Queue, tn int32) (int32, graph.Dist) {
	idx := x.idx
	pt := idx.PT
	prev := tn
	tn = pt.Nodes[tn].Parent
	tmin := graph.Inf
	if tn != 0 && len(idx.nodes[tn].borders) > 0 {
		tmin = src.MinBorderDist(tn)
	}
	for _, c := range pt.Nodes[tn].Children {
		if c != prev && x.ol.count[c] > 0 {
			q.Push(encodeNode(c), int64(src.MinBorderDist(c)))
		}
	}
	return tn, tmin
}

// enqueueLeafObjects inserts every object of leaf ni with its exact network
// distance assembled through the leaf's borders.
func (x *KNN) enqueueLeafObjects(src *Source, ni int32, q *pqueue.Queue) {
	for _, o := range x.ol.LeafObjects(ni) {
		if d := src.viaBorders(ni, x.idx.posInLeaf[o], graph.Inf); d < graph.Inf {
			q.Push(o, int64(d))
		}
	}
}

// leafSearchScan is Algorithm 4: a Dijkstra inside the source leaf,
// augmented with the global border clique. Objects settled before any
// border are immediate results (yielded right away); objects settled
// afterwards are enqueued into the main queue with their exact distances.
// The search stops after k settled leaf objects, or when the stream
// consumer or the interrupt check stops it (stopped=true). found counts the
// results yielded.
func (x *KNN) leafSearchScan(src *Source, k int, q *pqueue.Queue, yield func(knn.Result) bool) (found int, stopped bool) {
	ls, leaf := src.leafLocal(), src.leafQ
	n := &x.idx.nodes[leaf]
	borderFound := false
	targets := 0
	for settled := 1; targets < k; settled++ {
		if x.interrupt != nil && settled%knn.InterruptStride == 0 && x.interrupt() {
			return found, true
		}
		v, d, ok := ls.next()
		if !ok {
			break
		}
		if !borderFound && borderIndexOf(n, v) >= 0 {
			borderFound = true
		}
		// Membership comes from the occurrence list's vertex bitset (shared
		// with the binding's object set) instead of a hash set allocated per
		// query — the Section 6.2 container discipline applied to the leaf
		// search hot path.
		gv := x.idx.PT.Nodes[leaf].Vertices[v]
		if x.ol.IsObject(gv) {
			targets++
			if !borderFound {
				found++
				if !yield(knn.Result{Vertex: gv, Dist: d}) {
					return found, true
				}
			} else {
				q.Push(gv, int64(d))
			}
		}
	}
	return found, false
}

// leafSearchOriginal reproduces the pre-improvement behaviour: exhaust the
// leaf (settle every leaf object regardless of k), compute for each object
// both the within-leaf distance and the through-borders distance, and
// enqueue all of them.
func (x *KNN) leafSearchOriginal(src *Source, qv int32, q *pqueue.Queue) {
	idx := x.idx
	leaf := src.leafQ
	// Within-leaf-only Dijkstra (no border clique): path type (a); the
	// through-borders distances are path type (b).
	inside := leafOnlyDistances(idx, leaf, qv)
	for _, o := range x.ol.LeafObjects(leaf) {
		pos := idx.posInLeaf[o]
		if d := src.viaBorders(leaf, pos, inside[pos]); d < graph.Inf {
			q.Push(o, int64(d))
		}
	}
}

var (
	_ knn.Method        = (*KNN)(nil)
	_ knn.Streamer      = (*KNN)(nil)
	_ knn.Interruptible = (*KNN)(nil)
)

// leafOnlyDistances runs a plain Dijkstra constrained to the leaf subgraph
// (no border clique), the "type (a)" paths of Appendix A.2.1.
func leafOnlyDistances(idx *Index, leaf, qv int32) []graph.Dist {
	verts := idx.PT.Nodes[leaf].Vertices
	off, tgt, w := idx.leafOff[leaf], idx.leafTgt[leaf], idx.leafW[leaf]
	dist := make([]graph.Dist, len(verts))
	for i := range dist {
		dist[i] = graph.Inf
	}
	q := pqueue.NewQueue(len(verts))
	srcPos := idx.posInLeaf[qv]
	dist[srcPos] = 0
	q.Push(srcPos, 0)
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
	return dist
}
