package ine

import (
	"slices"

	"rnknn/internal/dijkstra"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/pqueue"
)

// Shared-expansion batch execution: a group of spatially-clustered kNN
// queries runs as ONE multi-source frontier (dijkstra.MultiSource) that
// settles each vertex once and feeds every member's result collector,
// instead of len(qs) independent INE expansions over nearly the same
// region. Each member keeps its own k-th-distance bound; the frontier stops
// once the queue minimum exceeds every member's bound, which preserves
// per-member exactness (see the MultiSource exactness argument).
//
// All group state below is reused across calls, so a warm shared batch
// allocates nothing.

// groupState is the per-session scratch of the shared expansion.
type groupState struct {
	ms *dijkstra.MultiSource

	qs  []knn.GroupQuery
	src []int32

	// top[u] holds member u's k nearest tentative object distances so far,
	// the k-th at the top. It grows to the most members any call had, and
	// each call resets the ones it uses.
	top []pqueue.MaxQueue

	// objs lists settled object vertices (final labels are read back from
	// the frontier after the expansion terminates); sel is the scratch a
	// member's answer is sorted in.
	objs []int32
	sel  []knn.Result

	// mb holds each member's live pruning bound (its k-th tentative object
	// distance, Inf until k candidates exist), exported to the frontier as
	// MultiSource.Bounds so each member's wave stops expanding at its own
	// k-th-distance bound.
	mb []graph.Dist

	// bound is the current global stop bound: the max over member bounds,
	// Inf until every member has k candidates.
	bound graph.Dist

	// settle is the MultiSource callback, bound once so warm group queries
	// create no per-call closure.
	settle func(v int32, labels []graph.Dist) graph.Dist
}

// KNNGroupAppend implements knn.BatchMethod: one shared expansion answers
// every member of the group exactly.
func (x *INE) KNNGroupAppend(qs []knn.GroupQuery, dst [][]knn.Result) {
	if len(qs) == 0 {
		return
	}
	if len(qs) == 1 {
		dst[0] = x.KNNAppend(qs[0].Q, qs[0].K, dst[0])
		return
	}
	g := x.grp
	if g == nil {
		g = &groupState{ms: dijkstra.NewMultiSource(x.g)}
		g.settle = func(v int32, labels []graph.Dist) graph.Dist {
			return x.groupSettle(v, labels)
		}
		x.grp = g
	}
	g.qs = append(g.qs[:0], qs...)
	g.src = g.src[:0]
	g.mb = g.mb[:0]
	for len(g.top) < len(qs) {
		g.top = append(g.top, pqueue.MaxQueue{})
	}
	for u := range g.qs {
		// No member can find more objects than exist: clamp first, so a
		// member's bound closes once it holds every object, and its answer
		// slice below stays in range.
		g.qs[u].K = min(max(g.qs[u].K, 0), x.objs.Len())
		g.src = append(g.src, g.qs[u].Q)
		g.mb = append(g.mb, graph.Inf)
		g.top[u].Reset()
	}
	g.objs = g.objs[:0]
	g.bound = graph.Inf

	g.ms.Interrupt = x.interrupt
	g.ms.Bounds = g.mb
	g.ms.Expand(g.src, g.settle)
	x.VisitedVertices = g.ms.SettledVertices

	// The expansion is over: labels at or below each member's bound are
	// final. Select each member's k nearest among the settled objects from
	// the final labels — tentative distances seen mid-expansion may have
	// improved since, so the selection must re-read them.
	for u := range qs {
		dst[u] = g.selectMember(u, dst[u])
	}
}

// groupSettle is the frontier callback: track settled objects and maintain
// each member's k-th-distance bound, returning the group's stop bound.
func (x *INE) groupSettle(v int32, labels []graph.Dist) graph.Dist {
	g := x.grp
	if !x.objs.Contains(v) {
		return g.bound
	}
	g.objs = append(g.objs, v)
	changed := false
	for u := range g.qs {
		d, top := labels[u], &g.top[u]
		switch {
		case d >= graph.Inf:
			continue
		case top.Len() < g.qs[u].K:
			top.Push(v, d)
		case d < top.MaxKey():
			top.ReplaceTop(v, d)
		default:
			continue
		}
		if top.Len() == g.qs[u].K {
			g.mb[u] = top.MaxKey()
		}
		changed = true
	}
	if changed {
		// Recompute the stop bound: Inf while any member is short of k
		// candidates, else the worst member's k-th tentative distance.
		b := graph.Dist(0)
		for u := range g.qs {
			if g.top[u].Len() < g.qs[u].K {
				return graph.Inf
			}
			b = max(b, g.mb[u])
		}
		g.bound = b
	}
	return g.bound
}

// selectMember appends member u's k smallest final object distances,
// tie-broken by vertex id, in ascending order.
func (g *groupState) selectMember(u int, dst []knn.Result) []knn.Result {
	g.sel = g.sel[:0]
	for _, v := range g.objs {
		if d := g.ms.Label(v, u); d < graph.Inf {
			g.sel = append(g.sel, knn.Result{Vertex: v, Dist: d})
		}
	}
	slices.SortFunc(g.sel, knn.ByDistVertex)
	return append(dst, g.sel[:min(g.qs[u].K, len(g.sel))]...)
}

var _ knn.BatchMethod = (*INE)(nil)
