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
	// ineCSRGraph: single packed edge array, the paper's last rung. The
	// production INE goes one step further and walks degree-2 chains
	// (ine.Hops), which no rung models.
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
	q := newBinaryIndexedQueue(256)
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

// binaryIndexedQueue is a binary min-heap with decrease-key, keyed by vertex
// id through a Go map: the "1st Cut" rung's heap, kept here because the
// serving methods use none like it. It quantifies the cost the paper
// attributes to decrease-key bookkeeping (Figure 7, "PQueue").
type binaryIndexedQueue struct {
	a   []pqueue.Item
	pos map[int32]int
}

// newBinaryIndexedQueue returns an indexed queue with capacity hint n.
func newBinaryIndexedQueue(n int) *binaryIndexedQueue {
	return &binaryIndexedQueue{a: make([]pqueue.Item, 0, n), pos: make(map[int32]int, n)}
}

// Len returns the number of entries.
func (q *binaryIndexedQueue) Len() int { return len(q.a) }

// Empty reports whether the queue has no entries.
func (q *binaryIndexedQueue) Empty() bool { return len(q.a) == 0 }

// PushOrDecrease inserts id with key, or lowers its key if already present
// with a larger key. It reports whether the queue changed.
func (q *binaryIndexedQueue) PushOrDecrease(id int32, key int64) bool {
	if i, ok := q.pos[id]; ok {
		if q.a[i].Key <= key {
			return false
		}
		q.a[i].Key = key
		q.up(i)
		return true
	}
	q.a = append(q.a, pqueue.Item{ID: id, Key: key})
	q.pos[id] = len(q.a) - 1
	q.up(len(q.a) - 1)
	return true
}

// Pop removes and returns the minimum-key item.
func (q *binaryIndexedQueue) Pop() pqueue.Item {
	top := q.a[0]
	last := len(q.a) - 1
	q.swap(0, last)
	q.a = q.a[:last]
	delete(q.pos, top.ID)
	if last > 0 {
		q.down(0)
	}
	return top
}

func (q *binaryIndexedQueue) swap(i, j int) {
	q.a[i], q.a[j] = q.a[j], q.a[i]
	q.pos[q.a[i].ID] = i
	q.pos[q.a[j].ID] = j
}

func (q *binaryIndexedQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.a[parent].Key <= q.a[i].Key {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *binaryIndexedQueue) down(i int) {
	n := len(q.a)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q.a[r].Key < q.a[l].Key {
			c = r
		}
		if q.a[c].Key >= q.a[i].Key {
			break
		}
		q.swap(i, c)
		i = c
	}
}
