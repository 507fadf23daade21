// Package ier implements Incremental Euclidean Restriction (Section 3.2),
// the heuristic best-first kNN framework the paper revives (Section 5): an
// R-tree supplies candidate objects in Euclidean-lower-bound order, and any
// pluggable distance oracle (Dijkstra, CH, TNR, PHL, materialized G-tree)
// verifies their network distances. The same scan and oracle answer range
// queries (RangeAppend: range by Euclidean restriction).
//
// On travel-time graphs the lower bound is dE/S where S is the maximum
// "speed" dE(e)/w(e) over edges (Section 7.5); the same formula is used on
// travel-distance graphs, where S <= 1 and the bound is at least as tight
// as plain Euclidean distance.
package ier

import (
	"math"
	"slices"

	"rnknn/internal/geo"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/pqueue"
	"rnknn/internal/rtree"
	"rnknn/internal/scratch"
)

// IER is the IER kNN method bound to an oracle and an object set. The
// method value owns all transient query memory — the top-k and pending
// heaps, the stamped evicted set, the R-tree scan queue — so a warm query
// performs no heap allocations.
type IER struct {
	name    string
	g       *graph.Graph
	objs    *knn.ObjectSet
	rt      *rtree.Tree
	factory knn.SourceFactory
	// invSpeed = 1/S; lower bound = floor(dE * invSpeed).
	invSpeed float64

	// interrupt, when non-nil, is polled once per candidate; a true return
	// aborts the scan early.
	interrupt func() bool

	// Per-query scratch, reused across queries. cand is the top k verified
	// so far, keyed by distance (the k-th at the top), pending the
	// verified-but-unemitted results, evicted the stamped set of candidates
	// displaced from cand (pending drops them lazily), scan the suspendable
	// R-tree search.
	cand    pqueue.MaxQueue
	pending pqueue.Queue
	evicted *scratch.Set
	scan    rtree.Scanner
	out     []knn.Result
	collect func(knn.Result) bool

	// FalseHits counts network distance computations in the last query that
	// did not improve the candidate set (an experiment statistic).
	FalseHits int
	// OracleCalls counts network distance computations in the last query.
	OracleCalls int
	// Evictions counts top-k displacements in the last query (entries the
	// stamped evicted set lazily invalidated).
	Evictions int
}

// NewObjectTree builds the Euclidean object R-tree for objs over g — the
// decoupled object index (Section 2.2) IER scans for candidates. The tree
// may be shared read-only by any number of IER instances; object churn
// derives the next epoch's tree with rtree.Clone plus Insert/Delete rather
// than mutating one a query might be scanning.
func NewObjectTree(g *graph.Graph, objs *knn.ObjectSet) *rtree.Tree {
	verts := objs.Vertices()
	pts := make([]geo.Point, len(verts))
	for i, v := range verts {
		pts[i] = geo.Point{X: g.X[v], Y: g.Y[v]}
	}
	return rtree.New(verts, pts, 0)
}

// New builds an IER method. name is the reported method name (e.g.
// "IER-PHL"); the object R-tree is built over the object set's coordinates.
func New(name string, g *graph.Graph, objs *knn.ObjectSet, factory knn.SourceFactory) *IER {
	return NewWithTree(name, g, objs, NewObjectTree(g, objs), factory)
}

// NewWithTree builds an IER method over a prebuilt object R-tree (shared
// across query sessions; see Rebind).
func NewWithTree(name string, g *graph.Graph, objs *knn.ObjectSet, rt *rtree.Tree, factory knn.SourceFactory) *IER {
	x := &IER{
		name:     name,
		g:        g,
		objs:     objs,
		rt:       rt,
		factory:  factory,
		invSpeed: 1 / g.MaxSpeed(),
		evicted:  scratch.NewSet(g.NumVertices()),
	}
	x.collect = func(r knn.Result) bool {
		x.out = append(x.out, r)
		return true
	}
	return x
}

// Name implements knn.Method.
func (x *IER) Name() string { return x.name }

// Rebind swaps the object set and its prebuilt R-tree between queries
// (object indexes are decoupled from the road network index, Section 2.2).
func (x *IER) Rebind(objs *knn.ObjectSet, rt *rtree.Tree) {
	x.objs = objs
	x.rt = rt
}

// SetInterrupt implements knn.Interruptible.
func (x *IER) SetInterrupt(check func() bool) { x.interrupt = check }

// Tree returns the object R-tree (shared with experiments that measure the
// object index, Figure 18).
func (x *IER) Tree() *rtree.Tree { return x.rt }

// KNN implements knn.Method: the stream already emits in nondecreasing
// network distance order, so the buffered answer is a plain collect.
func (x *IER) KNN(qv int32, k int) []knn.Result {
	return x.KNNAppend(qv, k, make([]knn.Result, 0, k))
}

// KNNAppend implements knn.Method's zero-allocation form.
func (x *IER) KNNAppend(qv int32, k int, dst []knn.Result) []knn.Result {
	return x.KNNWithinAppend(qv, k, graph.Inf, dst)
}

// KNNWithinAppend implements knn.BoundedMethod: the k nearest objects at
// distance <= bound, appended to dst. The scan stops at the first object
// whose Euclidean lower bound exceeds bound, RangeAppend's stop rule, and a
// candidate verified beyond bound is a false hit; KNNAppend is the bound =
// graph.Inf case.
func (x *IER) KNNWithinAppend(qv int32, k int, bound graph.Dist, dst []knn.Result) []knn.Result {
	x.out = dst
	x.stream(qv, k, bound, x.collect)
	dst = x.out
	x.out = nil
	return dst
}

// KNNStream implements knn.Streamer: the best-first R-tree scan with each
// verified candidate yielded as soon as it is provably final. The R-tree
// emits objects in nondecreasing Euclidean-lower-bound order, so
// every later object verifies at a network distance of at least the scan's
// current lower bound lb; a candidate already verified at distance <= lb
// can therefore never be displaced from the top k and is safe to emit.
// Candidates are emitted in nondecreasing network distance order via a
// min-heap of pending (verified, unemitted) results; a candidate evicted
// from the top-k max-heap is lazily invalidated.
func (x *IER) KNNStream(qv int32, k int, yield func(knn.Result) bool) {
	x.stream(qv, k, graph.Inf, yield)
}

// stream is the one kNN loop, behind KNNStream and KNNWithinAppend (and so
// KNN): the scan above, cut off at bound.
func (x *IER) stream(qv int32, k int, bound graph.Dist, yield func(knn.Result) bool) {
	x.FalseHits = 0
	x.OracleCalls = 0
	x.Evictions = 0
	if k > x.objs.Len() {
		k = x.objs.Len()
	}
	if k == 0 {
		return
	}
	src := x.factory.NewSource(qv)
	x.scan.Start(x.rt, geo.Point{X: x.g.X[qv], Y: x.g.Y[qv]})
	x.cand.Reset()
	x.pending.Reset()
	x.evicted.Reset()
	dk := graph.Inf
	for {
		if x.interrupt != nil && x.interrupt() {
			break
		}
		nb, ok := x.scan.Next()
		if !ok {
			break
		}
		lb := graph.Dist(math.Floor(nb.Dist * x.invSpeed))
		if !x.emitPending(lb, yield) {
			return
		}
		if x.cand.Len() == k && lb >= dk || lb > bound {
			break
		}
		d := src.DistanceTo(nb.ID)
		x.OracleCalls++
		if d > bound || x.cand.Len() == k && d >= dk {
			x.FalseHits++
			continue
		}
		if x.cand.Len() < k {
			x.cand.Push(nb.ID, d)
		} else {
			// The replaced max (the old dk) was never emitted: emission
			// requires dist <= lb, and lb < dk while the scan runs.
			x.evicted.Add(x.cand.ReplaceTop(nb.ID, d).ID)
			x.Evictions++
		}
		if x.cand.Len() == k {
			dk = x.cand.MaxKey()
		}
		x.pending.Push(nb.ID, d)
	}
	// Scan terminated (or was interrupted): every surviving candidate is
	// final; drain in distance order.
	x.emitPending(graph.Inf, yield)
}

// Range implements knn.RangeMethod.
func (x *IER) Range(qv int32, radius graph.Dist) []knn.Result {
	return x.RangeAppend(qv, radius, nil)
}

// RangeAppend implements knn.RangeMethod's zero-allocation form: range by
// Euclidean restriction, IER's range twin (RER, Papadias et al. VLDB 2003).
// The same R-tree scan supplies objects in nondecreasing lower-bound order
// and the same oracle verifies each, but the stop rule needs no candidate
// heap: the scan ends at the first object whose lower bound exceeds radius,
// because every unscanned object then has network distance >= lb > radius.
// Verified objects within radius (inclusive, as INE) are kept and sorted by
// (distance, vertex). FalseHits counts verified objects outside the radius.
func (x *IER) RangeAppend(qv int32, radius graph.Dist, dst []knn.Result) []knn.Result {
	x.FalseHits, x.OracleCalls, x.Evictions = 0, 0, 0
	if x.objs.Len() == 0 {
		return dst
	}
	src := x.factory.NewSource(qv)
	x.scan.Start(x.rt, geo.Point{X: x.g.X[qv], Y: x.g.Y[qv]})
	mark := len(dst)
	for x.interrupt == nil || !x.interrupt() {
		nb, ok := x.scan.Next()
		if !ok || graph.Dist(math.Floor(nb.Dist*x.invSpeed)) > radius {
			break
		}
		x.OracleCalls++
		if d := src.DistanceTo(nb.ID); d <= radius {
			dst = append(dst, knn.Result{Vertex: nb.ID, Dist: d})
		} else {
			x.FalseHits++
		}
	}
	slices.SortFunc(dst[mark:], knn.ByDistVertex)
	return dst
}

// emitPending yields pending candidates with distance <= limit, skipping
// lazily invalidated (evicted) entries; false means the consumer stopped
// the stream.
func (x *IER) emitPending(limit graph.Dist, yield func(knn.Result) bool) bool {
	for x.pending.MinKey() <= limit {
		it := x.pending.Pop()
		if x.evicted.Contains(it.ID) {
			continue
		}
		if !yield(knn.Result{Vertex: it.ID, Dist: it.Key}) {
			return false
		}
	}
	return true
}

var (
	_ knn.Method        = (*IER)(nil)
	_ knn.RangeMethod   = (*IER)(nil)
	_ knn.Interruptible = (*IER)(nil)
	_ knn.Streamer      = (*IER)(nil)
	_ knn.BoundedMethod = (*IER)(nil)
)
