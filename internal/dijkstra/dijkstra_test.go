package dijkstra_test

import (
	"math/rand"
	"testing"

	"rnknn/internal/dijkstra"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 12, Cols: 14, Seed: 7})
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	return g
}

// bellmanFord is an independent reference implementation.
func bellmanFord(g *graph.Graph, src int32) []graph.Dist {
	n := g.NumVertices()
	d := make([]graph.Dist, n)
	for i := range d {
		d[i] = graph.Inf
	}
	d[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := int32(0); u < int32(n); u++ {
			if d[u] == graph.Inf {
				continue
			}
			ts, ws := g.Neighbors(u)
			for i, v := range ts {
				if nd := d[u] + graph.Dist(ws[i]); nd < d[v] {
					d[v] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return d
}

func TestAllMatchesBellmanFord(t *testing.T) {
	g := testGraph(t)
	s := dijkstra.NewSolver(g)
	dist := make([]graph.Dist, g.NumVertices())
	for _, src := range []int32{0, 5, int32(g.NumVertices() - 1)} {
		s.All(src, dist)
		want := bellmanFord(g, src)
		for v := range want {
			if dist[v] != want[v] {
				t.Fatalf("src=%d v=%d: got %d want %d", src, v, dist[v], want[v])
			}
		}
	}
}

func TestDistancePointToPoint(t *testing.T) {
	g := testGraph(t)
	s := dijkstra.NewSolver(g)
	want := bellmanFord(g, 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		dst := int32(rng.Intn(g.NumVertices()))
		if got := s.Distance(3, dst); got != want[dst] {
			t.Fatalf("Distance(3,%d) = %d, want %d", dst, got, want[dst])
		}
	}
	if s.Distance(7, 7) != 0 {
		t.Fatal("self distance must be 0")
	}
}

func TestSolverReuseAcrossSearches(t *testing.T) {
	g := testGraph(t)
	s := dijkstra.NewSolver(g)
	d1 := s.Distance(0, 10)
	_ = s.Distance(40, 80)
	d2 := s.Distance(0, 10)
	if d1 != d2 {
		t.Fatalf("reused solver diverged: %d vs %d", d1, d2)
	}
}

func TestAllWithFirstMove(t *testing.T) {
	g := testGraph(t)
	s := dijkstra.NewSolver(g)
	n := g.NumVertices()
	dist := make([]graph.Dist, n)
	fm := make([]int32, n)
	src := int32(17)
	s.AllWithFirstMove(src, dist, fm)
	want := bellmanFord(g, src)
	adj := map[int32]bool{}
	ts, ws := g.Neighbors(src)
	adjW := map[int32]graph.Dist{}
	for i, v := range ts {
		adj[v] = true
		adjW[v] = graph.Dist(ws[i])
	}
	for v := 0; v < n; v++ {
		if dist[v] != want[v] {
			t.Fatalf("dist mismatch at %d", v)
		}
		if int32(v) == src {
			if fm[v] != src {
				t.Fatalf("firstMove[src] = %d", fm[v])
			}
			continue
		}
		f := fm[v]
		if !adj[f] {
			t.Fatalf("first move %d of %d is not adjacent to src", f, v)
		}
		// The first move must be consistent: d(src,v) = w(src,f) + d(f,v).
		df := bellmanFord(g, f)
		if adjW[f]+df[v] != want[v] {
			t.Fatalf("first move %d for %d not on a shortest path", f, v)
		}
	}
}

func TestResumableMonotoneAndComplete(t *testing.T) {
	g := testGraph(t)
	r := dijkstra.NewResumable(g, 0)
	want := bellmanFord(g, 0)
	prev := graph.Dist(-1)
	seen := 0
	for {
		v, d, ok := r.Next()
		if !ok {
			break
		}
		if d < prev {
			t.Fatal("settled distances not monotone")
		}
		prev = d
		if want[v] != d {
			t.Fatalf("resumable dist %d for %d, want %d", d, v, want[v])
		}
		seen++
	}
	if seen != g.NumVertices() {
		t.Fatalf("settled %d of %d vertices", seen, g.NumVertices())
	}
}

func TestResumableDistanceTo(t *testing.T) {
	g := testGraph(t)
	want := bellmanFord(g, 5)
	r := dijkstra.NewResumable(g, 5)
	// Query out of order; each answer must still be exact.
	for _, v := range []int32{100, 3, 100, 60, 5} {
		if got := r.DistanceTo(v); got != want[v] {
			t.Fatalf("DistanceTo(%d) = %d, want %d", v, got, want[v])
		}
	}
}

// unitGrid is a side x side lattice with every edge weight 1: from a corner
// there are up to side vertices at each distance, so almost every settle is
// an equal-distance tie.
func unitGrid(side int) *graph.Graph {
	xs, ys := make([]float64, side*side), make([]float64, side*side)
	for i := range xs {
		xs[i], ys[i] = float64(i%side), float64(i/side)
	}
	b := graph.NewBuilder(side*side, xs, ys)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := int32(r*side + c)
			if c+1 < side {
				b.AddEdge(v, v+1, 1, 1)
			}
			if r+1 < side {
				b.AddEdge(v, v+int32(side), 1, 1)
			}
		}
	}
	return b.Build("unit")
}

// TestResumableAgreesWithAll checks the two things Resumable derives
// instead of storing — "is v's distance final" (a label no larger than the
// latest settled distance) and the settled count — against Solver.All, on a
// generated network, its travel-time view and a unit-weight grid full of
// equal-distance ties.
func TestResumableAgreesWithAll(t *testing.T) {
	base := testGraph(t)
	graphs := map[string]*graph.Graph{
		"distance":    base,
		"travel-time": base.View(graph.TravelTime),
		"unit-grid":   unitGrid(9),
	}
	for name, g := range graphs {
		n := g.NumVertices()
		want := make([]graph.Dist, n)
		rng := rand.New(rand.NewSource(3))
		var r *dijkstra.Resumable
		for _, src := range []int32{0, int32(n / 2), int32(n - 1)} {
			dijkstra.NewSolver(g).All(src, want)
			if r == nil {
				r = dijkstra.NewResumable(g, src)
			} else {
				r.Reset(src)
			}
			if r.SettledCount() != 0 {
				t.Fatalf("%s src=%d: %d settled before the first Next", name, src, r.SettledCount())
			}
			// Random probes: every answer exact, and the expansion never
			// runs past the probed distance — each settled vertex lies
			// within the largest distance asked for so far.
			var reach graph.Dist
			for i := 0; i < 3*n; i++ {
				v := int32(rng.Intn(n))
				if got := r.DistanceTo(v); got != want[v] {
					t.Fatalf("%s src=%d: DistanceTo(%d) = %d, All says %d", name, src, v, got, want[v])
				}
				reach = max(reach, want[v])
				within := 0
				for _, d := range want {
					if d <= reach {
						within++
					}
				}
				if r.SettledCount() > within {
					t.Fatalf("%s src=%d: %d settled, only %d vertices within %d", name, src, r.SettledCount(), within, reach)
				}
			}
			// Drain: Next yields each remaining vertex once, and the count
			// ends at |V| exactly (a tie answered early is not counted twice).
			for _, _, ok := r.Next(); ok; _, _, ok = r.Next() {
			}
			if r.SettledCount() != n {
				t.Fatalf("%s src=%d: SettledCount = %d after exhaustion, want %d", name, src, r.SettledCount(), n)
			}
		}
	}
}
