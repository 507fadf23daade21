package ine

import (
	"rnknn/internal/dijkstra"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

// Shared-expansion batch execution: a group of spatially-clustered kNN
// queries runs as ONE multi-source frontier (dijkstra.MultiSource) that
// settles each vertex once and feeds every member's result collector,
// instead of len(qs) independent INE expansions over nearly the same
// region. Each member keeps its own k-th-distance bound; the frontier stops
// once the queue minimum exceeds every member's bound, which preserves
// per-member exactness (see the MultiSource exactness argument).
//
// All group state below is arena-backed and reused across calls, so a warm
// shared batch allocates nothing.

// groupState is the per-session scratch of the shared expansion.
type groupState struct {
	ms *dijkstra.MultiSource

	qs  []knn.GroupQuery
	src []int32

	// Per-member k-bounded max-heaps. off[u] is member u's arena base; both
	// the bound heap (distances only, maintained during expansion) and the
	// final selection heap (vertex+distance pairs) use the same layout.
	off  []int32
	size []int32
	bnd  []graph.Dist
	res  []knn.Result

	// objs lists settled object vertices (final labels are read back from
	// the frontier after the expansion terminates).
	objs []int32

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
	m := len(qs)
	g.qs = append(g.qs[:0], qs...)
	g.src = g.src[:0]
	total := 0
	for u := range g.qs {
		// No member can find more objects than exist, and the arenas below
		// are sized by the sum of the k: clamp first (a huge k would OOM).
		g.qs[u].K = min(g.qs[u].K, x.objs.Len())
		g.src = append(g.src, g.qs[u].Q)
		total += g.qs[u].K
	}
	if cap(g.off) < m+1 {
		g.off = make([]int32, m+1)
		g.size = make([]int32, m)
	}
	g.off = g.off[:m+1]
	g.size = g.size[:m]
	g.off[0] = 0
	for u, q := range g.qs {
		g.off[u+1] = g.off[u] + int32(q.K)
		g.size[u] = 0
	}
	if cap(g.bnd) < total {
		g.bnd = make([]graph.Dist, total)
		g.res = make([]knn.Result, total)
	}
	g.bnd = g.bnd[:total]
	g.res = g.res[:total]
	if cap(g.mb) < m {
		g.mb = make([]graph.Dist, m)
	}
	g.mb = g.mb[:m]
	for u := range g.mb {
		g.mb[u] = graph.Inf
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
		d := labels[u]
		if d >= graph.Inf || g.qs[u].K <= 0 {
			continue
		}
		k := int32(g.qs[u].K)
		h := g.bnd[g.off[u]:g.off[u+1]]
		n := g.size[u]
		switch {
		case n < k:
			heapPushDist(h, int(n), d)
			g.size[u] = n + 1
			if n+1 == k {
				g.mb[u] = h[0]
			}
			changed = true
		case d < h[0]:
			heapReplaceDist(h, int(n), d)
			g.mb[u] = h[0]
			changed = true
		}
	}
	if changed {
		// Recompute the stop bound: Inf while any member is short of k
		// candidates, else the worst member's k-th tentative distance.
		b := graph.Dist(0)
		for u := range g.qs {
			if g.size[u] < int32(g.qs[u].K) {
				return graph.Inf
			}
			if top := g.bnd[g.off[u]]; top > b {
				b = top
			}
		}
		g.bound = b
	}
	return g.bound
}

// selectMember picks member u's k smallest final object distances,
// tie-broken by vertex id, and appends them in ascending order.
func (g *groupState) selectMember(u int, dst []knn.Result) []knn.Result {
	k := g.qs[u].K
	if k <= 0 {
		return dst
	}
	h := g.res[g.off[u]:g.off[u+1]]
	n := 0
	for _, v := range g.objs {
		d := g.ms.Label(v, u)
		if d >= graph.Inf {
			continue
		}
		r := knn.Result{Vertex: v, Dist: d}
		switch {
		case n < k:
			heapPushRes(h, n, r)
			n++
		case resultLess(r, h[0]):
			heapReplaceRes(h, n, r)
		}
	}
	base := len(dst)
	dst = append(dst, h[:n]...)
	for i := n - 1; i >= 0; i-- {
		dst[base+i] = h[0]
		heapPopRes(h, i+1)
	}
	return dst
}

// resultLess orders results by (distance, vertex): the deterministic total
// order the shared path reports ties in.
func resultLess(a, b knn.Result) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Vertex < b.Vertex
}

// Max-heap over distances (member bound heaps). h[0] is the largest of the
// first n entries.

func heapPushDist(h []graph.Dist, n int, d graph.Dist) {
	h[n] = d
	for i := n; i > 0; {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func heapReplaceDist(h []graph.Dist, n int, d graph.Dist) {
	h[0] = d
	siftDownDist(h, 0, n)
}

func siftDownDist(h []graph.Dist, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && h[r] > h[l] {
			big = r
		}
		if h[i] >= h[big] {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// Max-heap over results ordered by resultLess (final selection heaps).

func heapPushRes(h []knn.Result, n int, r knn.Result) {
	h[n] = r
	for i := n; i > 0; {
		p := (i - 1) / 2
		if !resultLess(h[p], h[i]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func heapReplaceRes(h []knn.Result, n int, r knn.Result) {
	h[0] = r
	siftDownRes(h, 0, n)
}

// heapPopRes removes the maximum of h[:n] (moving the last entry to the
// root and sifting down over n-1 entries).
func heapPopRes(h []knn.Result, n int) {
	h[0] = h[n-1]
	siftDownRes(h, 0, n-1)
}

func siftDownRes(h []knn.Result, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && resultLess(h[l], h[r]) {
			big = r
		}
		if !resultLess(h[i], h[big]) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

var _ knn.BatchMethod = (*INE)(nil)
