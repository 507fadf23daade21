package ier_test

import (
	"slices"
	"testing"

	"rnknn/internal/ch"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/ier"
	"rnknn/internal/knn"
	"rnknn/internal/phl"
)

// unitGrid is the travel-time view of a rows x cols lattice whose every edge
// takes one time unit to cross two length units: network distance is the
// hop count, so most objects tie with several others, and with S = 2 the
// lower bound is exactly dE/2 — tight along the axes, and wrong by a factor
// of two the moment the speed is forgotten.
func unitGrid(rows, cols int) *graph.Graph {
	n := rows * cols
	x, y := make([]float64, n), make([]float64, n)
	for v := 0; v < n; v++ {
		x[v], y[v] = 2*float64(v%cols), 2*float64(v/cols)
	}
	b := graph.NewBuilder(n, x, y)
	for v := int32(0); v < int32(n); v++ {
		if int(v)%cols+1 < cols {
			b.AddEdge(v, v+1, 2, 1)
		}
		if int(v)+cols < n {
			b.AddEdge(v, v+int32(cols), 2, 1)
		}
	}
	return b.Build("unit-grid").View(graph.TravelTime)
}

// rangeMethods are the two ends of the oracle family: the pinned PHL scan
// the planner picks, and the suspended Dijkstra that needs no index.
func rangeMethods(g *graph.Graph, objs *knn.ObjectSet) []*ier.IER {
	return []*ier.IER{
		ier.New("IER-PHL", g, objs, phl.Build(g, ch.Build(g)).NewSource()),
		ier.New("IER-Dijk", g, objs, &ier.DijkstraFactory{G: g}),
	}
}

// checkRange holds RangeAppend to the brute force exactly — same objects,
// same distances, ordered by (distance, vertex) — behind a caller's prefix.
func checkRange(t *testing.T, x *ier.IER, g *graph.Graph, objs *knn.ObjectSet, q int32, radius graph.Dist) {
	t.Helper()
	want := knn.BruteForceRange(g, objs, q, radius)
	slices.SortFunc(want, knn.ByDistVertex)
	got := x.RangeAppend(q, radius, []knn.Result{{Vertex: -7}})
	if got[0].Vertex != -7 || !slices.Equal(got[1:], want) {
		t.Fatalf("%s q=%d radius=%d: got %s, brute force %s", x.Name(), q, radius,
			knn.FormatResults(got), knn.FormatResults(want))
	}
	if x.OracleCalls < len(want) || x.FalseHits != x.OracleCalls-len(want) {
		t.Fatalf("%s q=%d radius=%d: %d oracle calls, %d false hits for %d results",
			x.Name(), q, radius, x.OracleCalls, x.FalseHits, len(want))
	}
}

// TestRangeMatchesBruteForce: range by Euclidean restriction is exact on
// travel distance, on the travel-time view (where the bound is dE/S) and
// on a lattice of ties, at the radii where an off-by-one would show: 0, the
// median 10th-neighbour distance, past the diameter, and just below and
// exactly at every object's distance (the bound is inclusive).
func TestRangeMatchesBruteForce(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Network(gen.NetworkSpec{Name: "distance", Rows: 18, Cols: 18, Seed: 41}),
		gen.Network(gen.NetworkSpec{Name: "time", Rows: 16, Cols: 20, Seed: 42}).View(graph.TravelTime),
		unitGrid(20, 20),
	} {
		objs := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 43))
		queries := gen.QueryVertices(g, 12, 44)
		// One query on an object, and make sure one is not.
		queries = append(queries, objs.Vertices()[0])
		for v := int32(0); ; v++ {
			if !objs.Contains(v) {
				queries = append(queries, v)
				break
			}
		}
		tenth := make([]graph.Dist, len(queries))
		for i, q := range queries {
			tenth[i] = knn.BruteForce(g, objs, q, 10)[9].Dist
		}
		slices.Sort(tenth)
		for _, x := range rangeMethods(g, objs) {
			for _, q := range queries {
				radii := []graph.Dist{0, tenth[len(tenth)/2], graph.Inf / 2}
				for _, r := range knn.BruteForce(g, objs, q, objs.Len()) {
					radii = append(radii, r.Dist-1, r.Dist)
				}
				for _, radius := range radii {
					if radius >= 0 {
						checkRange(t, x, g, objs, q, radius)
					}
				}
			}
			if got := x.Range(queries[0], graph.Inf/2); len(got) != objs.Len() {
				t.Fatalf("%s on %s: unbounded range found %d of %d objects", x.Name(), g.Name, len(got), objs.Len())
			}
		}
		for _, x := range rangeMethods(g, knn.NewObjectSet(g, nil)) {
			if got := x.Range(queries[0], graph.Inf/2); len(got) != 0 {
				t.Fatalf("%s on %s: empty set answered %s", x.Name(), g.Name, knn.FormatResults(got))
			}
		}
	}
}
