// Package ine implements Incremental Network Expansion (Section 3.1), the
// Dijkstra-derived baseline kNN method, in the optimised main-memory form
// the paper arrives at in Section 6.2: CSR graph and a heap without
// decrease-key (pqueue.Queue, 4-ary). The paper's choice 2, a bit-array
// settled container, is subsumed: the stamped label array (scratch.Dists)
// already tells a stale heap entry from a current one, so the production
// path stores no settled set at all.
//
// One step goes past the paper: the expansion walks chains of degree-2
// vertices instead of queueing them (Hops). Road networks are about half
// degree-2 vertices, and nothing branches at them, so each arc leads
// straight to the first vertex past its chain unless an object sits inside
// it. VisitedVertices therefore counts the vertices the heap settled, not
// the ones a hop walked through.
//
// The Figure 7 implementation ladder that ends here (1st Cut -> PQueue ->
// Settled -> Graph) is the experiment harness's (internal/exp).
package ine

import (
	"math"

	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/pqueue"
	"rnknn/internal/scratch"
)

// INE answers kNN queries by incremental network expansion from the query
// vertex. Not safe for concurrent use.
type INE struct {
	g    *graph.Graph
	hops *Hops
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

	// VisitedVertices counts vertices the heap settled in the last query
	// (an experiment statistic); vertices a hop walked through are not
	// counted.
	VisitedVertices int
}

// New returns an INE method over g and the object set, with a chain table
// of its own.
func New(g *graph.Graph, objs *knn.ObjectSet) *INE {
	return NewWithHops(BuildHops(g), objs)
}

// NewWithHops returns an INE method over the graph of h, sharing the chain
// table h (read-only, so any number of sessions may share it).
func NewWithHops(h *Hops, objs *knn.ObjectSet) *INE {
	g := h.g
	x := &INE{
		g:    g,
		hops: h,
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
	return x.KNNWithinAppend(qv, k, graph.Inf, dst)
}

// KNNWithinAppend implements knn.BoundedMethod: the k nearest objects at
// distance <= bound, appended to dst. The expansion stops at bound as
// RangeAppend's stops at its radius — relax pushes no vertex past it, so
// none beyond it is settled — and KNNAppend is the bound = graph.Inf case.
func (x *INE) KNNWithinAppend(qv int32, k int, bound graph.Dist, dst []knn.Result) []knn.Result {
	x.out = dst
	x.stream(qv, k, bound, x.collect)
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
	x.stream(qv, k, graph.Inf, yield)
}

// stream is INE's one search loop, behind KNNStream, KNNWithinAppend and
// RangeAppend: it settles vertices in nondecreasing distance order up to
// bound and yields each object settled, until k are found or the set is
// exhausted.
func (x *INE) stream(qv int32, k int, bound graph.Dist, yield func(knn.Result) bool) {
	// Once every object is settled nothing is left to find: a k above the
	// set's size (a Range's unlimited one included) stops there rather
	// than expanding the rest of the network.
	k = min(k, x.objs.Len())
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
		x.relax(v, d, bound)
	}
}

// relax takes every arc out of v, settled at distance d, walking the
// chains beyond it (Hops), and pushes each vertex it lands on whose label
// it lowers to at most bound: the one relax step of stream.
func (x *INE) relax(v int32, d, bound graph.Dist) {
	lo, hi := x.g.Offsets[v], x.g.Offsets[v+1]
	ts, ws, hs := x.g.Targets[lo:hi], x.g.W[lo:hi], x.hops.arc[lo:hi]
	for i, t := range ts {
		nd := d + graph.Dist(ws[i])
		if j := hs[i]; j != 0 {
			t, nd = x.hops.take(j, d, x.objs)
		}
		if nd <= bound && x.dist.Lower(t, nd) {
			x.q.Push(t, int64(nd))
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

// RangeAppend implements knn.RangeMethod's caller-owned-buffer form: every
// object within radius, which is KNNWithinAppend with no limit on k.
func (x *INE) RangeAppend(qv int32, radius graph.Dist, dst []knn.Result) []knn.Result {
	return x.KNNWithinAppend(qv, math.MaxInt, radius, dst)
}

var (
	_ knn.Method        = (*INE)(nil)
	_ knn.RangeMethod   = (*INE)(nil)
	_ knn.Interruptible = (*INE)(nil)
	_ knn.Streamer      = (*INE)(nil)
	_ knn.BoundedMethod = (*INE)(nil)
)
