package exp

import (
	"rnknn/internal/bitset"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/pqueue"
)

// ineVariant selects one rung of the Figure 7 implementation ladder
// (Section 6.2). Each rung keeps the previous rung's choices and improves one
// more.
//
// The rungs keep their own bit-array settled container (it is one of the
// things the ladder measures) although package ine no longer stores one, and
// every duplicate-tolerant rung rides the same pqueue.Queue as
// production. A faster Queue therefore speeds all of them up together: what
// Figure 7 reproduces is the ratio between rungs, not their absolute times.
type ineVariant int

const (
	// ineFirstCut: per-vertex adjacency objects, decrease-key indexed heap.
	ineFirstCut ineVariant = iota
	// inePQueue: heap without decrease-key (duplicates allowed).
	inePQueue
	// ineSettled: the rung that historically introduced the bit-array settled
	// container. All rungs now share one bit-array (the Section 6.2
	// recommendation), so this rung is timing-equivalent to inePQueue; it
	// is kept so Figure 7's ladder labels still resolve.
	ineSettled
	// ineCSRGraph: single packed edge array (this equals the production INE).
	ineCSRGraph
)

func (v ineVariant) String() string {
	switch v {
	case ineFirstCut:
		return "1st Cut"
	case inePQueue:
		return "PQueue"
	case ineSettled:
		return "Settled"
	case ineCSRGraph:
		return "Graph"
	}
	return "?"
}

// adjEntry is a naive adjacency record for the pre-CSR variants.
type adjEntry struct {
	to int32
	w  int32
}

// vertexObj models the "array of node objects, each containing an adjacency
// list array" representation the paper starts from.
type vertexObj struct {
	adj []adjEntry
}

// ineAblation is an INE implementation parameterized by ineVariant; it
// exists to reproduce Figure 7 and is intentionally not optimized further.
type ineAblation struct {
	variant ineVariant
	g       *graph.Graph
	objs    *knn.ObjectSet
	naive   []vertexObj
	settled *bitset.Set
}

// newINEAblation builds the variant's data structures over g.
func newINEAblation(g *graph.Graph, objs *knn.ObjectSet, v ineVariant) *ineAblation {
	a := &ineAblation{variant: v, g: g, objs: objs}
	if v < ineCSRGraph {
		a.naive = make([]vertexObj, g.NumVertices())
		for u := int32(0); u < int32(g.NumVertices()); u++ {
			ts, ws := g.Neighbors(u)
			adj := make([]adjEntry, len(ts))
			for i := range ts {
				adj[i] = adjEntry{ts[i], ws[i]}
			}
			a.naive[u].adj = adj
		}
	}
	a.settled = bitset.New(g.NumVertices())
	return a
}

// Name implements knn.Method.
func (a *ineAblation) Name() string { return "INE-" + a.variant.String() }

// KNN implements knn.Method.
func (a *ineAblation) KNN(qv int32, k int) []knn.Result {
	if a.variant == ineFirstCut {
		return a.knnDecreaseKey(qv, k)
	}
	return a.knnDuplicates(qv, k)
}

// KNNAppend implements knn.Method. The ablation rungs deliberately keep
// their per-query allocations (that overhead is part of what Figure 7
// measures), so this is a copy of the buffered answer, not a zero-alloc
// path.
func (a *ineAblation) KNNAppend(qv int32, k int, dst []knn.Result) []knn.Result {
	return append(dst, a.KNN(qv, k)...)
}

// knnDecreaseKey is the first-cut variant: indexed heap with decrease-key
// over per-vertex adjacency objects. The settled container is the shared
// bit-array (see ineVariant).
func (a *ineAblation) knnDecreaseKey(qv int32, k int) []knn.Result {
	q := pqueue.NewIndexedQueue(256)
	a.settled.Reset()
	out := make([]knn.Result, 0, k)
	q.PushOrDecrease(qv, 0)
	for !q.Empty() && len(out) < k {
		it := q.Pop()
		v := it.ID
		a.settled.Set(v)
		d := graph.Dist(it.Key)
		if a.objs.Contains(v) {
			out = append(out, knn.Result{Vertex: v, Dist: d})
			if len(out) == k {
				break
			}
		}
		for _, e := range a.naive[v].adj {
			if a.settled.Get(e.to) {
				continue
			}
			q.PushOrDecrease(e.to, int64(d)+int64(e.w))
		}
	}
	return out
}

// knnDuplicates covers the inePQueue, ineSettled and ineCSRGraph rungs: a
// duplicate-tolerant heap and the shared bit-array settled container, with
// the graph layout depending on the variant.
func (a *ineAblation) knnDuplicates(qv int32, k int) []knn.Result {
	q := pqueue.NewQueue(256)
	a.settled.Reset()
	useCSR := a.variant >= ineCSRGraph

	out := make([]knn.Result, 0, k)
	q.Push(qv, 0)
	for !q.Empty() && len(out) < k {
		it := q.Pop()
		v := it.ID
		if a.settled.Get(v) {
			continue
		}
		a.settled.Set(v)
		d := graph.Dist(it.Key)
		if a.objs.Contains(v) {
			out = append(out, knn.Result{Vertex: v, Dist: d})
			if len(out) == k {
				break
			}
		}
		if useCSR {
			ts, ws := a.g.Neighbors(v)
			for i, t := range ts {
				if a.settled.Get(t) {
					continue
				}
				q.Push(t, int64(d)+int64(ws[i]))
			}
		} else {
			for _, e := range a.naive[v].adj {
				if a.settled.Get(e.to) {
					continue
				}
				q.Push(e.to, int64(d)+int64(e.w))
			}
		}
	}
	return out
}
