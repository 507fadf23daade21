package ine

import (
	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

// Hops is INE's chain table over one weight view of a graph: for every arc,
// where the expansion lands when it takes that arc and walks on through the
// degree-2 vertices beyond it. A vertex is walked through only if it is not
// an object, has exactly two arcs, and exactly one of them leads back to the
// vertex the walk came from; nothing branches there, so the only way on is
// the other arc, and a path that turned back would only reach a vertex the
// walk already labelled. Such a vertex needs no label and no heap entry of
// its own. Objects are checked as a hop is taken (they change per query;
// the table does not), so a hop stops at the first object among its
// interior vertices and pushes it at its exact distance.
//
// Interior vertices are stored once per chain direction, not once per arc:
// the arcs along one chain direction share one list of positions, each arc
// starting at the position of its own target, so the table is
// O(|V|+|E|). A position holds the vertex an arc of the list leads to and
// that arc's weight, so a hop sums its distance as it walks, and the list's
// last position marks where every hop into it ends. An arc whose target is
// not walked through is plain: the expansion reads its target and weight
// from the graph.
//
// Every arc is placed in at most one list, and a list ends early where its
// walk would reach an arc another list already holds, or return to the
// vertex it started from (a cycle of degree-2 vertices). Ending a hop early
// only labels one more vertex, so any cut is correct; the lists are started
// from arcs leaving vertices of degree other than two first, which on a
// graph whose edges are all symmetric and simple makes every hop run to the
// first vertex past its chain, and cuts only cycles of degree-2 vertices.
// The build terminates on any CSR whose offsets and targets are in range,
// self-loops, parallel arcs and one-way arcs included.
type Hops struct {
	g   *graph.Graph
	arc []int32 // per arc, parallel to g.Targets: its first position, or 0 if plain
	pos []stop  // the lists' positions; pos[0] is unused, so 0 can mark a plain arc
}

// stop is one list position: the vertex v an arc leads to and the arc's
// weight w. The last position of a list holds ^v, which is negative: the
// walk ends at v.
type stop struct{ v, w int32 }

// BuildHops builds the chain table of g's active weights in O(|V|+|E|).
func BuildHops(g *graph.Graph) *Hops {
	h := &Hops{g: g, arc: make([]int32, g.NumEdges()), pos: make([]stop, 1)}
	placed := make([]bool, g.NumEdges())
	var arcs []int32 // the arcs of the list being walked
	n := int32(g.NumVertices())
	// Lists start from chained arcs leaving vertices of degree other than
	// two, then from whatever chained arcs are left (cycles).
	for _, heads := range []bool{true, false} {
		for u := range n {
			if heads == (g.Degree(u) == 2) {
				continue
			}
			for a := g.Offsets[u]; a < g.Offsets[u+1]; a++ {
				if !placed[a] && h.next(u, a) >= 0 {
					arcs = h.list(u, a, placed, arcs[:0])
				}
			}
		}
	}
	return h
}

// next returns the arc the walk continues on after arc a, which leaves u,
// or -1 when a's target is not walked through (objects aside): it must have
// exactly two arcs, exactly one of which leads back to u.
func (h *Hops) next(u, a int32) int32 {
	g := h.g
	v := g.Targets[a]
	lo := g.Offsets[v]
	if g.Offsets[v+1]-lo != 2 {
		return -1
	}
	switch back0, back1 := g.Targets[lo] == u, g.Targets[lo+1] == u; {
	case back0 && !back1:
		return lo + 1
	case back1 && !back0:
		return lo
	}
	return -1
}

// list walks from u along arc a0 and appends one list: each vertex walked
// through, then the vertex the walk ends at. Every arc it takes is placed,
// and those that lead to an interior vertex start there. arcs is scratch
// space, returned for reuse.
func (h *Hops) list(u, a0 int32, placed []bool, arcs []int32) []int32 {
	g := h.g
	base := int32(len(h.pos))
	for a, from := a0, u; ; {
		placed[a] = true
		arcs = append(arcs, a)
		t := g.Targets[a]
		h.pos = append(h.pos, stop{t, g.W[a]})
		s := h.next(from, a)
		if t == u || s < 0 || placed[s] {
			break
		}
		a, from = s, t
	}
	// arcs[i] leads to position base+i. All but the last lead to an interior
	// vertex; a list with none is dropped.
	m := int32(len(arcs)) - 1
	if m == 0 {
		h.pos = h.pos[:base]
		return arcs
	}
	end := &h.pos[len(h.pos)-1]
	end.v = ^end.v
	for i, a := range arcs[:m] {
		h.arc[a] = base + int32(i)
	}
	return arcs
}

// take returns where the expansion lands when it leaves a settled vertex at
// distance d by the chained arc starting at position j: the first object
// among the vertices it walks through, or else the vertex it ends at, with
// its exact distance.
func (h *Hops) take(j int32, d graph.Dist, objs *knn.ObjectSet) (int32, graph.Dist) {
	for ; ; j++ {
		s := h.pos[j]
		d += graph.Dist(s.w)
		if s.v < 0 {
			return ^s.v, d
		}
		if objs.Contains(s.v) {
			return s.v, d
		}
	}
}

// SizeBytes returns the table's footprint.
func (h *Hops) SizeBytes() int {
	return 4*len(h.arc) + 8*len(h.pos)
}
