package dijkstra

import (
	"math/bits"

	"rnknn/internal/graph"
	"rnknn/internal/pqueue"
)

// MultiSource is a shared expansion frontier for a group of nearby source
// vertices: one priority-queue sweep labels every reached vertex with a
// distance vector (one component per source) instead of running one
// Dijkstra per source. Each vertex's adjacency is scanned once per settle
// and the relaxation updates all components together, which is what makes a
// clustered group cheaper than independent expansions: the heap traffic and
// the memory traffic over the graph are paid once for the whole group.
//
// Exactness. The queue is keyed by the minimum component, so the sweep is a
// plain multi-source Dijkstra on the min label — a vertex's minimum
// component is final at its first pop. Non-minimum components may still
// improve afterwards (a path serving a farther source can arrive through
// vertices with larger min keys), so the frontier is label-correcting: any
// later improvement re-queues the vertex and its out-edges are relaxed
// again. Labels read after Expand returns are exact shortest distances.
// Early termination stays exact too: every queued entry's components are
// bounded below by its key, and keys only grow along relaxations, so once
// the queue minimum exceeds the caller's bound no label at or below the
// bound can change — see Expand.
//
// All state is arena-backed and stamped, so a warm MultiSource expands
// without heap allocations. Not safe for concurrent use.
type MultiSource struct {
	g     *graph.Graph
	width int

	// slot[v], valid when stamp[v] == cur, is v's index into the touched
	// list and the labels arena.
	slot  []int32
	stamp []uint32
	cur   uint32

	// labels holds the distance vectors: touched vertex i's components live
	// at labels[i*width : (i+1)*width].
	labels []graph.Dist
	// touched lists the labeled vertices in first-label order.
	touched []int32
	// pending[i] marks touched vertex i as queued with its current minimum;
	// popped[i] marks its first settle (the onSettle callback already ran).
	pending []bool
	popped  []bool
	// dirty[i] is the set of components of touched vertex i improved since
	// its last propagation: a pop relaxes only those, so the total
	// relaxation work stays proportional to the per-source Dijkstra work
	// instead of width times the pop count. This is what caps group width
	// at MaxWidth.
	dirty []uint64
	// minv[i] caches the minimum component of touched vertex i (labels only
	// decrease, so it is maintained incrementally and never rescanned).
	minv []graph.Dist

	q *pqueue.Queue

	// Interrupt, when non-nil, is polled every interruptStride settles; a
	// true return abandons the expansion (labels are then partial).
	Interrupt func() bool

	// Bounds, when non-nil, holds one live pruning bound per source: a
	// relaxation of component u producing a value above Bounds[u] is
	// skipped. A vertex whose distance from source u exceeds the bound
	// cannot lie on a shortest path to anything source u still cares about
	// (suffixes are nonnegative), so each member's wave expands only over
	// its own region instead of the widest member's — the per-member
	// termination rule of the single-query search, applied per component.
	// The caller may tighten entries during onSettle; labels for component
	// u are then exact wherever they are at or below the final Bounds[u].
	Bounds []graph.Dist

	// SettledVertices counts first settles of the last Expand (an
	// experiment statistic mirroring INE.VisitedVertices).
	SettledVertices int
	// Relabeled counts label-correcting re-settles of the last Expand —
	// the price of exactness, near zero for tightly clustered sources.
	Relabeled int
}

// interruptStride matches knn.InterruptStride, the cancellation-poll
// cadence of INE and ROAD (knn imports this package, so the constant cannot
// be shared).
const interruptStride = 256

// MaxWidth is the largest group one Expand accepts: the improved-component
// sets are single machine words. Callers split larger groups.
const MaxWidth = 64

// NewMultiSource returns a frontier over g.
func NewMultiSource(g *graph.Graph) *MultiSource {
	return &MultiSource{
		g:     g,
		slot:  make([]int32, g.NumVertices()),
		stamp: make([]uint32, g.NumVertices()),
		q:     pqueue.NewQueue(1024),
	}
}

// Expand runs the shared frontier from sources. onSettle is called exactly
// once per reached vertex, at its first pop, with the vertex and its current
// label vector (component u is the tentative distance from sources[u]; Inf
// when that source has not reached v yet). The callback returns the caller's
// current pruning bound: once the queue minimum exceeds it, every label at
// or below the bound is final and the expansion stops. Return graph.Inf for
// no bound.
//
// After Expand returns, Label reports exact distances for every vertex whose
// final distance from the relevant source is at or below the bound in force
// at termination (all reached vertices when unbounded).
func (ms *MultiSource) Expand(sources []int32, onSettle func(v int32, labels []graph.Dist) graph.Dist) {
	w := len(sources)
	if w == 0 {
		return
	}
	if w > MaxWidth {
		panic("dijkstra: MultiSource group wider than MaxWidth")
	}
	ms.width = w
	ms.cur++
	if ms.cur == 0 {
		for i := range ms.stamp {
			ms.stamp[i] = 0
		}
		ms.cur = 1
	}
	ms.touched = ms.touched[:0]
	ms.labels = ms.labels[:0]
	ms.q.Reset()
	ms.SettledVertices = 0
	ms.Relabeled = 0

	for u, s := range sources {
		sl := ms.touch(s)
		ms.labels[int(sl)*w+u] = 0
		ms.dirty[sl] |= 1 << uint(u)
		ms.minv[sl] = 0
		if !ms.pending[sl] {
			ms.pending[sl] = true
			ms.q.Push(s, 0)
		}
	}

	full := uint64(1)<<uint(w) - 1
	if w == 64 {
		full = ^uint64(0)
	}
	bound := graph.Inf
	polls := 0
	for !ms.q.Empty() {
		it := ms.q.Pop()
		v := it.ID
		sl := ms.slot[v] // touched by construction: only labeled vertices are queued
		if !ms.pending[sl] {
			continue // stale duplicate
		}
		// The newest entry for v carries its current minimum, and pops come
		// in key order, so it.Key is v's minimum component (see type doc).
		if it.Key > int64(bound) {
			break
		}
		ms.pending[sl] = false
		lv := ms.labels[int(sl)*w : int(sl)*w+w]
		if !ms.popped[sl] {
			ms.popped[sl] = true
			ms.SettledVertices++
			if b := onSettle(v, lv); b < bound {
				bound = b
			}
			polls++
			if ms.Interrupt != nil && polls%interruptStride == 0 && ms.Interrupt() {
				return
			}
		} else {
			ms.Relabeled++
		}
		// Propagate only the components improved since v's last
		// propagation; the rest already pushed their current values.
		prop := ms.dirty[sl]
		ms.dirty[sl] = 0
		if prop == 0 {
			continue
		}
		ts, ws := ms.g.Neighbors(v)
		for i, t := range ts {
			wt := graph.Dist(ws[i])
			tl := ms.touch(t)
			lt := ms.labels[int(tl)*w : int(tl)*w+w]
			var imp uint64
			if prop == full {
				// Dense fast path: most pops at a settle front propagate
				// every component; a straight loop beats bit scanning.
				for u := 0; u < w; u++ {
					nd := lv[u] + wt
					if nd >= lt[u] || (ms.Bounds != nil && nd > ms.Bounds[u]) {
						continue
					}
					lt[u] = nd
					imp |= 1 << uint(u)
					if nd < ms.minv[tl] {
						ms.minv[tl] = nd
					}
				}
			} else {
				for mk := prop; mk != 0; mk &= mk - 1 {
					u := bits.TrailingZeros64(mk)
					nd := lv[u] + wt
					if nd >= lt[u] || (ms.Bounds != nil && nd > ms.Bounds[u]) {
						continue
					}
					lt[u] = nd
					imp |= 1 << uint(u)
					if nd < ms.minv[tl] {
						ms.minv[tl] = nd
					}
				}
			}
			if imp == 0 {
				continue
			}
			ms.dirty[tl] |= imp
			// Skip the push when even the minimum cannot matter anymore:
			// components only grow along future relaxations. The dirty bits
			// stay set, so a later push propagates these improvements too.
			if ms.minv[tl] <= bound {
				ms.pending[tl] = true
				ms.q.Push(t, int64(ms.minv[tl]))
			}
		}
	}
}

// touch is ensure plus arena growth for the per-slot state.
func (ms *MultiSource) touch(v int32) int32 {
	if ms.stamp[v] == ms.cur {
		return ms.slot[v]
	}
	sl := int32(len(ms.touched))
	ms.slot[v] = sl
	ms.stamp[v] = ms.cur
	ms.touched = append(ms.touched, v)
	base := len(ms.labels)
	need := base + ms.width
	if cap(ms.labels) < need {
		grown := make([]graph.Dist, base, need+need/2+64*ms.width)
		copy(grown, ms.labels)
		ms.labels = grown
	}
	ms.labels = ms.labels[:need]
	for i := base; i < need; i++ {
		ms.labels[i] = graph.Inf
	}
	if int(sl) < len(ms.pending) {
		ms.pending[sl] = false
		ms.popped[sl] = false
		ms.dirty[sl] = 0
		ms.minv[sl] = graph.Inf
	} else {
		ms.pending = append(ms.pending, false)
		ms.popped = append(ms.popped, false)
		ms.dirty = append(ms.dirty, 0)
		ms.minv = append(ms.minv, graph.Inf)
	}
	return sl
}

// Label returns the final distance from sources[u] (of the last Expand) to
// v, or graph.Inf when that source never reached v.
func (ms *MultiSource) Label(v int32, u int) graph.Dist {
	if ms.stamp[v] != ms.cur {
		return graph.Inf
	}
	return ms.labels[int(ms.slot[v])*ms.width+u]
}

// Settled returns the vertices labeled by the last Expand, in first-label
// order; the slice is valid until the next Expand.
func (ms *MultiSource) Settled() []int32 { return ms.touched }
