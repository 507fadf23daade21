// Package ine implements Incremental Network Expansion (Section 3.1), the
// Dijkstra-derived baseline kNN method, in the optimised main-memory form
// the paper arrives at in Section 6.2: CSR graph and a heap without
// decrease-key (pqueue.Queue, 4-ary). The paper's choice 2, a bit-array
// settled container, is subsumed: the stamped label array (scratch.Dists)
// already tells a stale heap entry from a current one, so the production
// path stores no settled set at all.
//
// The Figure 7 implementation ladder that ends here (1st Cut -> PQueue ->
// Settled -> Graph) is the experiment harness's (internal/exp).
package ine

import (
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/pqueue"
	"rnknn/internal/scratch"
)

// INE answers kNN queries by incremental network expansion from the query
// vertex. Not safe for concurrent use.
type INE struct {
	g    *graph.Graph
	objs *knn.ObjectSet
	dist *scratch.Dists
	q    *pqueue.Queue

	// interrupt, when non-nil, is polled every knn.InterruptStride settled
	// vertices; a true return aborts the scan early.
	interrupt func() bool

	// out and collect implement the allocation-free KNNAppend: collect is
	// a collector closure bound once at construction, so the append-into-
	// caller-buffer path creates no per-query closure.
	out     []knn.Result
	collect func(knn.Result) bool

	// grp is the shared-expansion batch scratch (see group.go), created on
	// the first KNNGroupAppend so single-query sessions stay lean.
	grp *groupState

	// VisitedVertices counts vertices settled by the last query (an
	// experiment statistic).
	VisitedVertices int
}

// New returns an INE method over g and the object set.
func New(g *graph.Graph, objs *knn.ObjectSet) *INE {
	x := &INE{
		g:    g,
		objs: objs,
		dist: scratch.NewDists(g.NumVertices()),
		q:    pqueue.NewQueue(1024),
	}
	x.collect = func(r knn.Result) bool {
		x.out = append(x.out, r)
		return true
	}
	return x
}

// Name implements knn.Method.
func (x *INE) Name() string { return "INE" }

// SetObjects swaps the object set (object indexes are decoupled from the
// road network index, Section 2.2).
func (x *INE) SetObjects(objs *knn.ObjectSet) { x.objs = objs }

// SetInterrupt implements knn.Interruptible.
func (x *INE) SetInterrupt(check func() bool) { x.interrupt = check }

// KNN implements knn.Method.
func (x *INE) KNN(qv int32, k int) []knn.Result {
	return x.KNNAppend(qv, k, make([]knn.Result, 0, k))
}

// KNNAppend implements knn.Method: the zero-allocation query form (the
// caller owns dst, the session owns everything else).
func (x *INE) KNNAppend(qv int32, k int, dst []knn.Result) []knn.Result {
	x.out = dst
	x.KNNStream(qv, k, x.collect)
	dst = x.out
	x.out = nil
	return dst
}

// KNNStream implements knn.Streamer. Expansion settles vertices in
// nondecreasing distance order, so every object is final the moment it is
// settled — INE is the naturally incremental method: the first neighbor is
// yielded long before the k-th is found, and a false return from yield
// abandons the rest of the expansion.
func (x *INE) KNNStream(qv int32, k int, yield func(knn.Result) bool) {
	x.begin(qv)
	found := 0
	for !x.q.Empty() && found < k {
		it := x.q.Pop()
		v, d := it.ID, graph.Dist(it.Key)
		if d != x.dist.Get(v) {
			continue // stale duplicate: v was settled through a shorter entry
		}
		x.VisitedVertices++
		if x.interrupt != nil && x.VisitedVertices%knn.InterruptStride == 0 && x.interrupt() {
			break
		}
		if x.objs.Contains(v) {
			found++
			if !yield(knn.Result{Vertex: v, Dist: d}) {
				break
			}
			if found == k {
				break
			}
		}
		ts, ws := x.g.Neighbors(v)
		for i, t := range ts {
			if nd := d + graph.Dist(ws[i]); x.dist.Lower(t, nd) {
				x.q.Push(t, int64(nd))
			}
		}
	}
}

// begin resets the per-query state (O(1): a generation bump and two length
// resets) and seeds the expansion at qv.
func (x *INE) begin(qv int32) {
	x.dist.Reset()
	x.q.Reset()
	x.VisitedVertices = 0
	x.dist.Set(qv, 0)
	x.q.Push(qv, 0)
}

// Range returns every object within network distance radius of qv, in
// nondecreasing distance order — the range-query companion of KNN, using
// the same expansion machinery.
func (x *INE) Range(qv int32, radius graph.Dist) []knn.Result {
	return x.RangeAppend(qv, radius, nil)
}

// RangeAppend implements knn.RangeMethod's caller-owned-buffer form.
func (x *INE) RangeAppend(qv int32, radius graph.Dist, dst []knn.Result) []knn.Result {
	x.begin(qv)
	for !x.q.Empty() {
		it := x.q.Pop()
		v, d := it.ID, graph.Dist(it.Key)
		if d != x.dist.Get(v) {
			continue
		}
		if d > radius {
			break
		}
		x.VisitedVertices++
		if x.interrupt != nil && x.VisitedVertices%knn.InterruptStride == 0 && x.interrupt() {
			break
		}
		if x.objs.Contains(v) {
			dst = append(dst, knn.Result{Vertex: v, Dist: d})
		}
		ts, ws := x.g.Neighbors(v)
		for i, t := range ts {
			if nd := d + graph.Dist(ws[i]); nd <= radius && x.dist.Lower(t, nd) {
				x.q.Push(t, int64(nd))
			}
		}
	}
	return dst
}

var (
	_ knn.Method        = (*INE)(nil)
	_ knn.RangeMethod   = (*INE)(nil)
	_ knn.Interruptible = (*INE)(nil)
	_ knn.Streamer      = (*INE)(nil)
)
