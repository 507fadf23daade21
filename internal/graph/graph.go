// Package graph provides the in-memory road-network representation shared by
// every index and query algorithm in this repository.
//
// The layout follows the paper's main-memory guidance (Section 6.2, choice 3):
// all adjacency lists are packed into a single edge array (Targets/weights)
// indexed by a per-vertex offset array, so that expanding a vertex touches
// contiguous memory.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Dist is a network distance: a sum of non-negative edge weights.
type Dist = int64

// Inf is a sentinel distance larger than any real path length. It is small
// enough that Inf+weight does not overflow.
const Inf Dist = math.MaxInt64 / 4

// WeightKind selects which edge-weight metric a view of the graph exposes.
type WeightKind uint8

const (
	// TravelDistance weights approximate physical edge lengths; they are
	// guaranteed by the generator to upper-bound the Euclidean distance
	// between the endpoints, so Euclidean distance is a valid lower bound.
	TravelDistance WeightKind = iota
	// TravelTime weights approximate traversal times; Euclidean distance is
	// only a lower bound after scaling by the maximum speed (Section 7.5).
	TravelTime
)

func (k WeightKind) String() string {
	switch k {
	case TravelDistance:
		return "distance"
	case TravelTime:
		return "time"
	default:
		return fmt.Sprintf("WeightKind(%d)", uint8(k))
	}
}

// Graph is a connected undirected road network in CSR (compressed sparse row)
// form. Vertices are dense integers in [0, NumVertices). Every undirected
// edge {u,v} is stored twice, once in each direction, with identical weights.
//
// W is the active weight array selected by View; algorithms read W only, so a
// single topology serves both travel-distance and travel-time experiments.
type Graph struct {
	Name string

	// Offsets has length NumVertices()+1; the adjacency list of vertex v is
	// Targets[Offsets[v]:Offsets[v+1]] with weights W[Offsets[v]:Offsets[v+1]].
	Offsets []int32
	Targets []int32

	// W is the active per-edge weight array (aliases DistW or TimeW).
	W []int32
	// DistW and TimeW are the travel-distance and travel-time weights.
	DistW []int32
	TimeW []int32

	// X, Y are planar vertex coordinates in the same units as DistW, so that
	// Euclid(u,v) <= DistW edge weights along any path.
	X, Y []float64

	// Kind records which weight array W aliases.
	Kind WeightKind
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns the number of directed edge entries (twice the number of
// undirected edges).
func (g *Graph) NumEdges() int { return len(g.Targets) }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// Neighbors returns the adjacency slice of v: parallel target and weight
// slices. The slices alias the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int32) (targets []int32, weights []int32) {
	lo, hi := g.Offsets[v], g.Offsets[v+1]
	return g.Targets[lo:hi], g.W[lo:hi]
}

// View returns a shallow copy of g whose active weights W alias the array for
// kind. The topology, coordinates and underlying weight arrays are shared.
func (g *Graph) View(kind WeightKind) *Graph {
	out := *g
	out.Kind = kind
	switch kind {
	case TravelTime:
		out.W = g.TimeW
	default:
		out.W = g.DistW
	}
	return &out
}

// Euclid returns the Euclidean distance between vertices u and v in the same
// units as travel-distance weights.
func (g *Graph) Euclid(u, v int32) float64 {
	dx := g.X[u] - g.X[v]
	dy := g.Y[u] - g.Y[v]
	return math.Sqrt(dx*dx + dy*dy)
}

// EuclidLB returns a Dist that is guaranteed not to exceed the true Euclidean
// distance between u and v (floor of the float value), suitable as a network
// distance lower bound on travel-distance graphs.
func (g *Graph) EuclidLB(u, v int32) Dist {
	return Dist(math.Floor(g.Euclid(u, v)))
}

// MaxSpeed returns S = max over edges of dE(u,v)/w(u,v) for the active weight
// kind (Section 7.5). Dividing a Euclidean distance by S yields a lower bound
// on network distance for any positive weight metric. Edges of weight zero
// are impossible (weights are validated positive).
func (g *Graph) MaxSpeed() float64 {
	s := 0.0
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		ts, ws := g.Neighbors(u)
		for i, v := range ts {
			if v < u {
				continue // each undirected edge once
			}
			if r := g.Euclid(u, v) / float64(ws[i]); r > s {
				s = r
			}
		}
	}
	if s == 0 {
		s = 1
	}
	return s
}

// EdgeWeightBetween returns the weight of the arc from u to v under the
// active weights, the least one over parallel arcs, and whether such an arc
// exists: the length of the step from u to v on a shortest path.
func (g *Graph) EdgeWeightBetween(u, v int32) (int32, bool) {
	ts, ws := g.Neighbors(u)
	best, ok := int32(0), false
	for i, t := range ts {
		if t == v && (!ok || ws[i] < best) {
			best, ok = ws[i], true
		}
	}
	return best, ok
}

// Validate checks structural invariants: sorted offsets, targets in range,
// finite coordinates, positive weights, symmetry of the undirected
// representation, and that travel-distance weights upper-bound Euclidean
// lengths. It is intended for tests and data-loading paths, not hot loops.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n <= 0 {
		return fmt.Errorf("graph has no vertices")
	}
	if len(g.Offsets) != n+1 || g.Offsets[0] != 0 || int(g.Offsets[n]) != len(g.Targets) {
		return fmt.Errorf("malformed offsets")
	}
	if len(g.DistW) != len(g.Targets) || len(g.TimeW) != len(g.Targets) {
		return fmt.Errorf("weight arrays do not match edge count")
	}
	if len(g.X) != n || len(g.Y) != n {
		return fmt.Errorf("coordinate arrays do not match vertex count")
	}
	for v := range n {
		if math.IsNaN(g.X[v]) || math.IsInf(g.X[v], 0) || math.IsNaN(g.Y[v]) || math.IsInf(g.Y[v], 0) {
			return fmt.Errorf("non-finite coordinate at vertex %d", v)
		}
	}
	type key struct{ u, v int32 }
	seen := make(map[key]int32, len(g.Targets))
	for u := int32(0); u < int32(n); u++ {
		if g.Offsets[u] > g.Offsets[u+1] {
			return fmt.Errorf("offsets not monotone at %d", u)
		}
		lo, hi := g.Offsets[u], g.Offsets[u+1]
		for i := lo; i < hi; i++ {
			v := g.Targets[i]
			if v < 0 || int(v) >= n {
				return fmt.Errorf("target out of range: %d", v)
			}
			if v == u {
				return fmt.Errorf("self loop at %d", u)
			}
			if g.DistW[i] <= 0 || g.TimeW[i] <= 0 {
				return fmt.Errorf("non-positive weight on edge %d->%d", u, v)
			}
			if float64(g.DistW[i]) < g.Euclid(u, v)-1e-6 {
				return fmt.Errorf("distance weight below Euclidean on %d->%d", u, v)
			}
			seen[key{u, v}] = g.DistW[i]
		}
	}
	for k, w := range seen {
		if w2, ok := seen[key{k.v, k.u}]; !ok || w2 != w {
			return fmt.Errorf("asymmetric edge %d<->%d", k.u, k.v)
		}
	}
	if !g.Connected() {
		return fmt.Errorf("graph is not connected")
	}
	return nil
}

// Connected reports whether the graph is a single connected component.
func (g *Graph) Connected() bool {
	n := g.NumVertices()
	if n == 0 {
		return false
	}
	visited := make([]bool, n)
	stack := []int32{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ts, _ := g.Neighbors(v)
		for _, t := range ts {
			if !visited[t] {
				visited[t] = true
				count++
				stack = append(stack, t)
			}
		}
	}
	return count == n
}

// DegreeHistogram returns counts of vertices by degree (index = degree).
func (g *Graph) DegreeHistogram() []int {
	var hist []int
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		d := g.Degree(v)
		for len(hist) <= d {
			hist = append(hist, 0)
		}
		hist[d]++
	}
	return hist
}

// ChainFraction returns the fraction of vertices with degree <= 2, the
// population exploited by the SILC chain optimisation (Appendix A.1.2).
func (g *Graph) ChainFraction() float64 {
	c := 0
	n := g.NumVertices()
	for v := int32(0); v < int32(n); v++ {
		if g.Degree(v) <= 2 {
			c++
		}
	}
	return float64(c) / float64(n)
}

// Builder accumulates undirected edges and produces a Graph in CSR form.
type Builder struct {
	n     int
	x, y  []float64
	edges []builderEdge
}

type builderEdge struct {
	u, v int32
	dw   int32
	tw   int32
}

// NewBuilder creates a builder for n vertices with the given coordinates.
func NewBuilder(n int, x, y []float64) *Builder {
	if len(x) != n || len(y) != n {
		panic("graph: coordinate arrays must have length n")
	}
	return &Builder{n: n, x: x, y: y}
}

// AddEdge records the undirected edge {u,v} with travel-distance weight dw
// and travel-time weight tw. Duplicate edges are ignored at Build time,
// keeping the smaller weight.
func (b *Builder) AddEdge(u, v int32, dw, tw int32) {
	if u == v {
		return
	}
	if dw <= 0 {
		dw = 1
	}
	if tw <= 0 {
		tw = 1
	}
	b.edges = append(b.edges, builderEdge{u, v, dw, tw})
}

// Build assembles the CSR graph with active travel-distance weights.
func (b *Builder) Build(name string) *Graph {
	// Deduplicate on the normalized (min,max) pair keeping minimum weights.
	for i := range b.edges {
		if b.edges[i].u > b.edges[i].v {
			b.edges[i].u, b.edges[i].v = b.edges[i].v, b.edges[i].u
		}
	}
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].u != b.edges[j].u {
			return b.edges[i].u < b.edges[j].u
		}
		return b.edges[i].v < b.edges[j].v
	})
	dedup := b.edges[:0]
	for _, e := range b.edges {
		if len(dedup) > 0 {
			last := &dedup[len(dedup)-1]
			if last.u == e.u && last.v == e.v {
				if e.dw < last.dw {
					last.dw = e.dw
				}
				if e.tw < last.tw {
					last.tw = e.tw
				}
				continue
			}
		}
		dedup = append(dedup, e)
	}
	b.edges = dedup

	deg := make([]int32, b.n+1)
	for _, e := range b.edges {
		deg[e.u+1]++
		deg[e.v+1]++
	}
	for i := 1; i <= b.n; i++ {
		deg[i] += deg[i-1]
	}
	offsets := deg
	m := int(offsets[b.n])
	targets := make([]int32, m)
	dw := make([]int32, m)
	tw := make([]int32, m)
	pos := make([]int32, b.n)
	copy(pos, offsets[:b.n])
	put := func(u, v, d, t int32) {
		p := pos[u]
		targets[p] = v
		dw[p] = d
		tw[p] = t
		pos[u] = p + 1
	}
	for _, e := range b.edges {
		put(e.u, e.v, e.dw, e.tw)
		put(e.v, e.u, e.dw, e.tw)
	}
	g := &Graph{
		Name:    name,
		Offsets: offsets,
		Targets: targets,
		DistW:   dw,
		TimeW:   tw,
		X:       b.x,
		Y:       b.y,
		Kind:    TravelDistance,
	}
	g.W = g.DistW
	return g
}
