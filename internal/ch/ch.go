// Package ch implements Contraction Hierarchies (Geisberger et al.), one of
// the fast shortest-path techniques the paper composes with IER (Section 5,
// Figure 4). Vertices are contracted in importance order (lazy edge-
// difference heuristic with witness searches); queries run a bidirectional
// Dijkstra over upward edges only.
package ch

import (
	"slices"

	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/pqueue"
	"rnknn/internal/scratch"
)

// Index is a built contraction hierarchy.
type Index struct {
	// rank[v] is v's contraction order (higher = more important).
	rank []int32
	// Upward adjacency in CSR form: for every (original or shortcut) edge
	// {u,v}, the lower-ranked endpoint points to the higher-ranked one.
	upOff []int32
	upTo  []int32
	upW   []int32
	// Shortcuts counts the shortcut edges added during preprocessing.
	Shortcuts int
}

// Searcher holds the search state of one query session over an Index: the
// forward and backward halves of the bidirectional Dijkstra, the forward
// half doubling as UpwardSearch's. The Index itself is immutable after
// Build, so any number of Searchers may query it concurrently; a single
// Searcher is not safe for concurrent use.
type Searcher struct {
	x              *Index
	distF, distB   []graph.Dist
	stampF, stampB []uint32
	cur            uint32
	qf, qb         *pqueue.Queue
}

// NewSearcher returns a fresh query session over the index.
func (x *Index) NewSearcher() *Searcher {
	n := len(x.rank)
	return &Searcher{
		x:      x,
		distF:  make([]graph.Dist, n),
		distB:  make([]graph.Dist, n),
		stampF: make([]uint32, n),
		stampB: make([]uint32, n),
		qf:     pqueue.NewQueue(256),
		qb:     pqueue.NewQueue(256),
	}
}

// Name implements knn.DistanceOracle.
func (s *Searcher) Name() string { return "CH" }

// Rank returns the contraction rank of v (higher contracted later; used by
// TNR to pick transit nodes).
func (x *Index) Rank(v int32) int32 { return x.rank[v] }

// Up returns v's upward arcs (original and shortcut edges to higher-ranked
// vertices) with their weights; PHL derives its labels from them.
func (x *Index) Up(v int32) (to, w []int32) {
	lo, hi := x.upOff[v], x.upOff[v+1]
	return x.upTo[lo:hi], x.upW[lo:hi]
}

// dynEdge is a working-graph edge during contraction.
type dynEdge struct {
	to int32
	w  int32
}

// Build contracts g into a hierarchy.
//
// The working graph adj holds only uncontracted vertices: contracting v
// removes v from each neighbour's list. The removal is a stable filter
// because relaxation order decides heap tie order, and with the witness
// settle limit that decides which shortcuts are added.
func Build(g *graph.Graph) *Index {
	n := g.NumVertices()
	x := &Index{rank: make([]int32, n)}

	// The initial lists share one array; each is capped at its length, so
	// a shortcut appended to one moves it out instead of overwriting the next.
	adj := make([][]dynEdge, n)
	backing := make([]dynEdge, 0, g.NumEdges())
	for v := int32(0); v < int32(n); v++ {
		ts, ws := g.Neighbors(v)
		start := len(backing)
		for i := range ts {
			backing = append(backing, dynEdge{ts[i], ws[i]})
		}
		adj[v] = backing[start:len(backing):len(backing)]
	}
	contracted := make([]bool, n)
	deleted := make([]int16, n) // contracted neighbors heuristic term

	// all accumulates original + shortcut edges for the upward graph.
	var all []shortcut
	for v := int32(0); v < int32(n); v++ {
		ts, ws := g.Neighbors(v)
		for i, t := range ts {
			if t > v {
				all = append(all, shortcut{v, t, ws[i]})
			}
		}
	}

	// prio simulates contracting v; ws.shortcuts keeps the last simulation's
	// shortcuts, which are the ones to add when the pop is accepted.
	ws := newWitnessSearch(n)
	prio := func(v int32) int64 {
		ws.simulate(adj, v)
		return int64(len(ws.shortcuts)-len(adj[v]))*4 + int64(deleted[v])
	}

	q := pqueue.NewQueue(n)
	for v := int32(0); v < int32(n); v++ {
		q.Push(v, prio(v))
	}
	next := int32(0)
	for !q.Empty() {
		it := q.Pop()
		v := it.ID
		if contracted[v] {
			continue
		}
		// Lazy update: re-evaluate; if no longer minimal, requeue.
		p := prio(v)
		if !q.Empty() && p > q.MinKey() {
			q.Push(v, p)
			continue
		}
		for _, sc := range ws.shortcuts {
			adj[sc.u] = upsertEdge(adj[sc.u], sc.v, sc.w)
			adj[sc.v] = upsertEdge(adj[sc.v], sc.u, sc.w)
			all = append(all, sc)
			x.Shortcuts++
		}
		contracted[v] = true
		x.rank[v] = next
		next++
		for _, e := range adj[v] {
			deleted[e.to]++
			adj[e.to] = slices.DeleteFunc(adj[e.to], func(f dynEdge) bool { return f.to == v })
		}
		adj[v] = nil
	}

	// Build the upward CSR: edge endpoints point from lower to higher rank.
	deg := make([]int32, n+1)
	for _, e := range all {
		lo := e.u
		if x.rank[e.v] < x.rank[e.u] {
			lo = e.v
		}
		deg[lo+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	x.upOff = deg
	m := int(x.upOff[n])
	x.upTo = make([]int32, m)
	x.upW = make([]int32, m)
	pos := make([]int32, n)
	copy(pos, x.upOff[:n])
	for _, e := range all {
		lo, hi := e.u, e.v
		if x.rank[hi] < x.rank[lo] {
			lo, hi = hi, lo
		}
		x.upTo[pos[lo]] = hi
		x.upW[pos[lo]] = e.w
		pos[lo]++
	}
	return x
}

func upsertEdge(es []dynEdge, to, w int32) []dynEdge {
	for i := range es {
		if es[i].to == to {
			if w < es[i].w {
				es[i].w = w
			}
			return es
		}
	}
	return append(es, dynEdge{to, w})
}

// shortcut is an edge {u, v} of weight w: one a contraction adds, or an
// original edge on its way into the upward graph.
type shortcut struct{ u, v, w int32 }

// witnessSearch is a bounded Dijkstra used to decide whether a shortcut
// u -> t through the contracted vertex v is necessary.
type witnessSearch struct {
	dist      *scratch.Dists
	q         *pqueue.Queue
	shortcuts []shortcut
}

func newWitnessSearch(n int) *witnessSearch {
	return &witnessSearch{dist: scratch.NewDists(n), q: pqueue.NewQueue(256)}
}

// witnessSettleLimit bounds each witness search; a lower limit adds more
// (harmless) shortcuts but speeds preprocessing.
const witnessSettleLimit = 60

// simulate fills ws.shortcuts with the shortcuts required to contract v:
// for every pair of neighbors (u, t) with path u-v-t of weight w, a
// shortcut is needed unless a witness path of weight <= w exists in the
// remaining graph avoiding v.
func (ws *witnessSearch) simulate(adj [][]dynEdge, v int32) {
	ws.shortcuts = ws.shortcuts[:0]
	nbrs := adj[v]
	for i, eu := range nbrs {
		// Each unordered pair once: one witness Dijkstra from u, bounded by
		// the largest via weight to a later neighbour. Weights are positive,
		// so nothing it would relax past that bound decides a pair.
		var maxVia graph.Dist
		for _, et := range nbrs[i+1:] {
			maxVia = max(maxVia, graph.Dist(eu.w)+graph.Dist(et.w))
		}
		if maxVia == 0 {
			break
		}
		ws.run(adj, eu.to, v, maxVia)
		for _, et := range nbrs[i+1:] {
			via := graph.Dist(eu.w) + graph.Dist(et.w)
			if ws.dist.Get(et.to) > via {
				ws.shortcuts = append(ws.shortcuts, shortcut{eu.to, et.to, int32(via)})
			}
		}
	}
}

func (ws *witnessSearch) run(adj [][]dynEdge, src, avoid int32, limit graph.Dist) {
	ws.dist.Reset()
	ws.q.Reset()
	ws.dist.Set(src, 0)
	ws.q.Push(src, 0)
	settled := 0
	for !ws.q.Empty() && settled < witnessSettleLimit {
		it := ws.q.Pop()
		u := it.ID
		d := graph.Dist(it.Key)
		if d > ws.dist.Get(u) {
			continue
		}
		if d > limit {
			break
		}
		settled++
		for _, e := range adj[u] {
			if e.to == avoid {
				continue
			}
			if nd := d + graph.Dist(e.w); ws.dist.Lower(e.to, nd) {
				ws.q.Push(e.to, int64(nd))
			}
		}
	}
}

// Distance implements knn.DistanceOracle: a bidirectional upward Dijkstra.
func (sr *Searcher) Distance(s, t int32) graph.Dist {
	if s == t {
		return 0
	}
	x := sr.x
	sr.next()
	sr.qb.Reset()
	sr.setF(s, 0)
	sr.setB(t, 0)
	sr.qf.Push(s, 0)
	sr.qb.Push(t, 0)
	best := graph.Inf
	for !sr.qf.Empty() || !sr.qb.Empty() {
		if min := graph.Dist(sr.qf.MinKey()); !sr.qf.Empty() && min < best {
			it := sr.qf.Pop()
			v := it.ID
			d := graph.Dist(it.Key)
			if d == sr.fOf(v) {
				if bd := sr.bOf(v); bd != graph.Inf && d+bd < best {
					best = d + bd
				}
				for e := x.upOff[v]; e < x.upOff[v+1]; e++ {
					u := x.upTo[e]
					if nd := d + graph.Dist(x.upW[e]); nd < sr.fOf(u) {
						sr.setF(u, nd)
						sr.qf.Push(u, int64(nd))
					}
				}
			}
		} else if !sr.qf.Empty() {
			sr.qf.Reset()
		}
		if min := graph.Dist(sr.qb.MinKey()); !sr.qb.Empty() && min < best {
			it := sr.qb.Pop()
			v := it.ID
			d := graph.Dist(it.Key)
			if d == sr.bOf(v) {
				if fd := sr.fOf(v); fd != graph.Inf && d+fd < best {
					best = d + fd
				}
				for e := x.upOff[v]; e < x.upOff[v+1]; e++ {
					u := x.upTo[e]
					if nd := d + graph.Dist(x.upW[e]); nd < sr.bOf(u) {
						sr.setB(u, nd)
						sr.qb.Push(u, int64(nd))
					}
				}
			}
		} else if !sr.qb.Empty() {
			sr.qb.Reset()
		}
	}
	return best
}

func (sr *Searcher) setF(v int32, d graph.Dist) { sr.distF[v] = d; sr.stampF[v] = sr.cur }
func (sr *Searcher) setB(v int32, d graph.Dist) { sr.distB[v] = d; sr.stampB[v] = sr.cur }

func (sr *Searcher) fOf(v int32) graph.Dist {
	if sr.stampF[v] != sr.cur {
		return graph.Inf
	}
	return sr.distF[v]
}

func (sr *Searcher) bOf(v int32) graph.Dist {
	if sr.stampB[v] != sr.cur {
		return graph.Inf
	}
	return sr.distB[v]
}

// next starts a new search: it advances the stamp (clearing both stamp
// arrays when it wraps) and empties the forward queue.
func (sr *Searcher) next() {
	sr.cur++
	if sr.cur == 0 {
		clear(sr.stampF)
		clear(sr.stampB)
		sr.cur = 1
	}
	sr.qf.Reset()
}

// UpwardSearch runs a full upward Dijkstra from s on the searcher's forward
// state, invoking visit for every settled vertex with its upward distance.
// When pruneAt returns true for a settled vertex, its edges are not relaxed
// (the vertex is reported but the search does not continue through it).
// TNR's build uses this for access-node and local-cone computation.
func (sr *Searcher) UpwardSearch(s int32, pruneAt func(v int32) bool, visit func(v int32, d graph.Dist)) {
	x := sr.x
	sr.next()
	sr.setF(s, 0)
	sr.qf.Push(s, 0)
	for !sr.qf.Empty() {
		it := sr.qf.Pop()
		v := it.ID
		d := graph.Dist(it.Key)
		if d > sr.fOf(v) {
			continue
		}
		visit(v, d)
		if pruneAt != nil && pruneAt(v) {
			continue
		}
		for e := x.upOff[v]; e < x.upOff[v+1]; e++ {
			u := x.upTo[e]
			if nd := d + graph.Dist(x.upW[e]); nd < sr.fOf(u) {
				sr.setF(u, nd)
				sr.qf.Push(u, int64(nd))
			}
		}
	}
}

// SizeBytes estimates the index footprint.
func (x *Index) SizeBytes() int {
	return len(x.rank)*4 + len(x.upOff)*4 + len(x.upTo)*4 + len(x.upW)*4
}

var _ knn.DistanceOracle = (*Searcher)(nil)
