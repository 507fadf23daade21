// Package dijkstra implements the Dijkstra searches used both as the
// baseline distance oracle (the experiment harness's IER-Dijk, Figure 4)
// and as the construction workhorse for the SILC, G-tree and ROAD indexes.
//
// A Solver owns reusable per-search state (a stamped label array and a
// duplicate-tolerant 4-ary heap) so repeated searches over the same graph
// allocate nothing. It keeps no settled set: a popped entry is current
// exactly when its key equals the vertex's label (see scratch.Dists).
package dijkstra

import (
	"rnknn/internal/graph"
	"rnknn/internal/pqueue"
	"rnknn/internal/scratch"
)

// Solver runs Dijkstra searches over a fixed graph with reusable state.
// It is not safe for concurrent use; create one Solver per goroutine.
type Solver struct {
	g    *graph.Graph
	dist *scratch.Dists
	q    *pqueue.Queue
}

// NewSolver returns a Solver for g (using g's active weight kind).
func NewSolver(g *graph.Graph) *Solver {
	return &Solver{
		g:    g,
		dist: scratch.NewDists(g.NumVertices()),
		q:    pqueue.NewQueue(1024),
	}
}

// Graph returns the solver's graph.
func (s *Solver) Graph() *graph.Graph { return s.g }

func (s *Solver) begin(src int32) {
	s.dist.Reset()
	s.q.Reset()
	s.dist.Set(src, 0)
	s.q.Push(src, 0)
}

// settle pops the next vertex in nondecreasing distance order, skipping
// stale duplicates; ok is false once the reachable graph is exhausted.
func (s *Solver) settle() (v int32, d graph.Dist, ok bool) {
	for !s.q.Empty() {
		it := s.q.Pop()
		if d = graph.Dist(it.Key); d == s.dist.Get(it.ID) {
			return it.ID, d, true
		}
	}
	return 0, 0, false
}

func (s *Solver) relax(v int32, dv graph.Dist) {
	ts, ws := s.g.Neighbors(v)
	for i, t := range ts {
		if nd := dv + graph.Dist(ws[i]); s.dist.Lower(t, nd) {
			s.q.Push(t, int64(nd))
		}
	}
}

// Distance returns d(src, dst), terminating as soon as dst is settled.
func (s *Solver) Distance(src, dst int32) graph.Dist {
	if src == dst {
		return 0
	}
	s.begin(src)
	for {
		v, d, ok := s.settle()
		if !ok {
			return graph.Inf
		}
		if v == dst {
			return d
		}
		s.relax(v, d)
	}
}

// DistancesTo returns d(src, t) for each target, terminating once every
// target is settled. Unreachable targets get graph.Inf.
func (s *Solver) DistancesTo(src int32, targets []int32) []graph.Dist {
	out := make([]graph.Dist, len(targets))
	for i := range out {
		out[i] = graph.Inf
	}
	remaining := 0
	want := make(map[int32][]int, len(targets))
	for i, t := range targets {
		if t == src {
			out[i] = 0
			continue
		}
		want[t] = append(want[t], i)
		remaining++
	}
	if remaining == 0 {
		return out
	}
	s.begin(src)
	for remaining > 0 {
		v, d, ok := s.settle()
		if !ok {
			break
		}
		if idxs, ok := want[v]; ok {
			for _, i := range idxs {
				out[i] = d
			}
			remaining -= len(idxs)
		}
		s.relax(v, d)
	}
	return out
}

// All computes the full single-source shortest-path distances from src into
// out, which must have length |V|. Unreachable vertices get graph.Inf.
func (s *Solver) All(src int32, out []graph.Dist) {
	for i := range out {
		out[i] = graph.Inf
	}
	s.begin(src)
	for v, d, ok := s.settle(); ok; v, d, ok = s.settle() {
		out[v] = d
		s.relax(v, d)
	}
}

// AllWithFirstMove computes full SSSP from src, additionally recording for
// every reached vertex t the first vertex after src on a shortest path from
// src to t (the SILC "color", Section 3.3). firstMove[src] is set to src.
// Both slices must have length |V|.
func (s *Solver) AllWithFirstMove(src int32, out []graph.Dist, firstMove []int32) {
	for i := range out {
		out[i] = graph.Inf
		firstMove[i] = -1
	}
	s.begin(src)
	firstMove[src] = src
	// fm tracks the tentative first move for queued vertices.
	fm := firstMove
	for v, dv, ok := s.settle(); ok; v, dv, ok = s.settle() {
		out[v] = dv
		ts, ws := s.g.Neighbors(v)
		for i, t := range ts {
			if nd := dv + graph.Dist(ws[i]); s.dist.Lower(t, nd) {
				s.q.Push(t, int64(nd))
				if v == src {
					fm[t] = t
				} else {
					fm[t] = fm[v]
				}
			}
		}
	}
}

// Resumable is a suspendable Dijkstra expansion from a fixed source: callers
// pull settled vertices in nondecreasing distance order via Next, which is
// how IER-Dijk amortizes repeated network-distance computations from the
// same query vertex. The zero value is unusable; call NewResumable.
type Resumable struct {
	s       *Solver
	last    graph.Dist // distance of the latest settled vertex
	settled int
}

// NewResumable starts a resumable expansion from src.
func NewResumable(g *graph.Graph, src int32) *Resumable {
	r := &Resumable{s: NewSolver(g)}
	r.s.begin(src)
	return r
}

// Reset restarts the expansion from a new source, reusing the solver's
// label array and heap backing — repeated resumable searches from one
// session allocate nothing.
func (r *Resumable) Reset(src int32) {
	r.last, r.settled = 0, 0
	r.s.begin(src)
}

// Next returns the next settled vertex and its distance, or ok=false when
// the graph is exhausted.
func (r *Resumable) Next() (v int32, d graph.Dist, ok bool) {
	if v, d, ok = r.s.settle(); ok {
		r.last = d
		r.settled++
		r.s.relax(v, d)
	}
	return v, d, ok
}

// DistanceTo returns d(src, v), advancing the expansion only as far as it
// must. A label no larger than the latest settled distance is already
// final — every vertex that could still lower it has been settled and
// relaxed — whether or not v itself has been popped yet (an equal-distance
// tie may still sit in the queue).
func (r *Resumable) DistanceTo(v int32) graph.Dist {
	if d := r.s.dist.Get(v); d <= r.last {
		return d
	}
	for {
		u, d, ok := r.Next()
		if !ok {
			return graph.Inf
		}
		if u == v {
			return d
		}
	}
}

// SettledCount returns how many vertices have been settled so far.
func (r *Resumable) SettledCount() int { return r.settled }
