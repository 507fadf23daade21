package ine_test

import (
	"slices"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/ine"
	"rnknn/internal/knn"
)

func setup(t testing.TB, seed int64) (*graph.Graph, *knn.ObjectSet, []int32) {
	t.Helper()
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 18, Cols: 18, Seed: seed})
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.02, seed+1))
	queries := gen.QueryVertices(g, 40, seed+2)
	return g, objs, queries
}

func TestINEMatchesBruteForce(t *testing.T) {
	g, objs, queries := setup(t, 21)
	x := ine.New(g, objs)
	for _, q := range queries {
		for _, k := range []int{1, 5, 10} {
			got := x.KNN(q, k)
			want := knn.BruteForce(g, objs, q, k)
			if knn.CheckAnswer(g, objs, q, got, want) != nil {
				t.Fatalf("q=%d k=%d: got %s want %s", q, k,
					knn.FormatResults(got), knn.FormatResults(want))
			}
		}
	}
}

func TestINEOnTravelTime(t *testing.T) {
	g, objs, queries := setup(t, 22)
	tg := g.View(graph.TravelTime)
	x := ine.New(tg, objs)
	for _, q := range queries[:10] {
		got := x.KNN(q, 5)
		want := knn.BruteForce(tg, objs, q, 5)
		if knn.CheckAnswer(tg, objs, q, got, want) != nil {
			t.Fatalf("time q=%d: got %s want %s", q, knn.FormatResults(got), knn.FormatResults(want))
		}
	}
}

func TestINEQueryOnObjectVertex(t *testing.T) {
	g, objs, _ := setup(t, 23)
	x := ine.New(g, objs)
	q := objs.Vertices()[0]
	got := x.KNN(q, 3)
	if len(got) == 0 || got[0].Vertex != q || got[0].Dist != 0 {
		t.Fatalf("query on object: %s", knn.FormatResults(got))
	}
}

func TestINEKLargerThanObjects(t *testing.T) {
	g, _, _ := setup(t, 24)
	small := knn.NewObjectSet(g, []int32{3, 9})
	x := ine.New(g, small)
	got := x.KNN(0, 10)
	if len(got) != 2 {
		t.Fatalf("got %d results, want all 2 objects", len(got))
	}
}

func TestINESetObjectsSwaps(t *testing.T) {
	g, objs, queries := setup(t, 25)
	x := ine.New(g, objs)
	_ = x.KNN(queries[0], 5)
	objs2 := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 99))
	x.SetObjects(objs2)
	got := x.KNN(queries[0], 5)
	want := knn.BruteForce(g, objs2, queries[0], 5)
	if knn.CheckAnswer(g, objs2, queries[0], got, want) != nil {
		t.Fatal("SetObjects did not take effect")
	}
}

func TestINEVisitedVerticesCounted(t *testing.T) {
	g, objs, queries := setup(t, 26)
	x := ine.New(g, objs)
	_ = x.KNN(queries[0], 10)
	if x.VisitedVertices <= 0 || x.VisitedVertices > g.NumVertices() {
		t.Fatalf("VisitedVertices = %d", x.VisitedVertices)
	}
}

// TestINEChainShapes runs every query of small graphs built around one
// chain shape each against the brute-force scans, under both weight views:
// the shapes the chain walk (ine.Hops) must get right or must stop at.
func TestINEChainShapes(t *testing.T) {
	join := func(parts ...[]arc) []arc { return slices.Concat(parts...) }
	cases := []struct {
		name string
		n    int
		arcs []arc
		objs []int32
	}{
		{"pure cycle", 6, join(edge(0, 1, 3), edge(1, 2, 1), edge(2, 3, 4), edge(3, 4, 1), edge(4, 5, 5), edge(5, 0, 2)), []int32{3}},
		{"lollipop", 7, join(edge(0, 1, 2), edge(1, 2, 2), edge(2, 3, 1), edge(3, 4, 3), edge(4, 5, 1), edge(5, 6, 2), edge(6, 3, 4)), []int32{1, 5}},
		// 0-1 twice; 3 hangs off 2 by two parallel edges, so both its arcs
		// lead back to 2.
		{"parallel arcs", 5, join(edge(0, 1, 5), edge(0, 1, 2), edge(1, 2, 1), edge(2, 3, 2), edge(2, 3, 6), edge(2, 4, 3)), []int32{3, 4}},
		// 1 has a self-loop beside its chain edges; 4's two arcs are a
		// self-loop and the edge back to 3.
		{"self-loops", 5, join(edge(0, 1, 2), []arc{{1, 1, 1}}, edge(1, 2, 2), edge(2, 3, 1), edge(3, 4, 2), []arc{{4, 4, 3}}), []int32{2, 4}},
		// 1 is reached one way from 0 and has two arcs, neither back to 0:
		// a walk from 0 must stop at 1, where the path branches to 2 and 3.
		{"one-way arc", 4, join([]arc{{0, 1, 2}}, edge(1, 2, 5), edge(1, 3, 1)), []int32{2, 3}},
		// hubs 0 and 5 (degree 3) joined by the chain 1-2-3-4, objects
		// inside it; every vertex is a query, so queries inside it too.
		{"objects inside a chain", 8, join(edge(0, 1, 2), edge(1, 2, 3), edge(2, 3, 1), edge(3, 4, 2), edge(4, 5, 4), edge(0, 6, 1), edge(0, 7, 9), edge(5, 6, 8), edge(5, 7, 1)), []int32{2, 3, 7}},
	}
	for _, c := range cases {
		for _, view := range []graph.WeightKind{graph.TravelDistance, graph.TravelTime} {
			t.Run(c.name+"/"+view.String(), func(t *testing.T) {
				g := csr(c.n, c.arcs).View(view)
				objs := knn.NewObjectSet(g, c.objs)
				for q := range int32(c.n) {
					for _, k := range []int{1, 2, 3, c.n} {
						for _, radius := range []graph.Dist{0, 3, 7, 20} {
							checkAgainstBruteForce(t, g, objs, q, k, radius, radius)
						}
					}
				}
			})
		}
	}
}

// TestHopsSizeLinear pins the chain table's O(|V|+|E|) size on the shapes
// where a list per arc would be quadratic in chain length: one long path,
// one long pure cycle and one long lollipop. Every arc holds at most one
// list position, so the table stays within 4 bytes per arc plus 8 per
// position.
func TestHopsSizeLinear(t *testing.T) {
	const n = 3000
	var arcs []arc
	for v := int32(0); v+1 < n; v++ { // path 0 .. n-1
		arcs = append(arcs, edge(v, v+1, 1+v%5)...)
	}
	for v := int32(0); v < n; v++ { // pure cycle n .. 2n-1
		arcs = append(arcs, edge(n+v, n+(v+1)%n, 2)...)
	}
	for v := int32(0); v+1 < n; v++ { // stick 2n .. 3n-1, then a loop back to its middle
		arcs = append(arcs, edge(2*n+v, 2*n+v+1, 3)...)
	}
	arcs = append(arcs, edge(3*n-1, 2*n+n/2, 7)...)
	g := csr(3*n, arcs)
	h := ine.BuildHops(g)
	if limit := 4*g.NumEdges() + 8*(g.NumEdges()+1); h.SizeBytes() > limit {
		t.Fatalf("chain table is %d bytes for %d arcs, above %d", h.SizeBytes(), g.NumEdges(), limit)
	}
	objs := knn.NewObjectSet(g, []int32{n / 3, n + n/2, 2*n + n/4, 3*n - 2})
	for _, q := range []int32{0, n / 2, n - 1, n, n + 7, 2 * n, 2*n + n/2, 3*n - 1} {
		checkAgainstBruteForce(t, g, objs, q, 2, 5*n, n)
	}
}

// TestStopsWhenSetExhausted puts three objects next to the query and asks
// for ten: kNN, bounded kNN and Range must give the brute-force answer and
// stop once the third object is settled, visiting exactly what k = 3 visits
// and not the whole network.
func TestStopsWhenSetExhausted(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 30, Cols: 30, Seed: 23})
	q := int32(g.NumVertices() / 2)
	all := make([]int32, g.NumVertices())
	for v := range all {
		all[v] = int32(v)
	}
	var near []int32
	for _, r := range knn.BruteForce(g, knn.NewObjectSet(g, all), q, 4)[1:] {
		near = append(near, r.Vertex)
	}
	objs := knn.NewObjectSet(g, near)
	x := ine.New(g, objs)
	x.KNN(q, 3)
	exact := x.VisitedVertices
	want := knn.BruteForce(g, objs, q, 10)
	for name, run := range map[string]func() []knn.Result{
		"KNN":             func() []knn.Result { return x.KNN(q, 10) },
		"KNNWithinAppend": func() []knn.Result { return x.KNNWithinAppend(q, 10, graph.Inf-1, nil) },
		"Range":           func() []knn.Result { return x.Range(q, graph.Inf-1) },
	} {
		got := run()
		if knn.CheckAnswer(g, objs, q, got, want) != nil {
			t.Fatalf("%s: got %s want %s", name, knn.FormatResults(got), knn.FormatResults(want))
		}
		if x.VisitedVertices != exact || x.VisitedVertices >= g.NumVertices() {
			t.Fatalf("%s: visited %d vertices of %d, k = 3 visits %d", name, x.VisitedVertices, g.NumVertices(), exact)
		}
	}
}
