package road_test

import (
	"math/rand"
	"testing"

	"rnknn/internal/dijkstra"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/partition"
	"rnknn/internal/road"
)

func testGraph(t testing.TB, seed int64, rows, cols int) *graph.Graph {
	t.Helper()
	return gen.Network(gen.NetworkSpec{Name: "t", Rows: rows, Cols: cols, Seed: seed})
}

// buildLevels builds ROAD over a fanout-4 partition of the given depth.
func buildLevels(g *graph.Graph, levels int) *road.Index {
	return road.BuildOnPartition(g, partition.Build(g, partition.Options{Fanout: 4, MaxLevels: levels}), levels)
}

func TestShortcutsAreWithinRnetDistances(t *testing.T) {
	g := testGraph(t, 61, 14, 14)
	idx := buildLevels(g, 3)
	solver := dijkstra.NewSolver(g)
	// Root shortcuts are empty (no borders); level-1 node shortcuts must be
	// >= the global distance (they are constrained to the Rnet) and
	// realizable, i.e. not below global shortest path.
	pt := idx.PT
	for _, ni := range pt.Nodes[0].Children {
		bs := idxBorders(idx, ni)
		for i := int32(0); i < int32(len(bs)); i++ {
			for j := int32(0); j < int32(len(bs)); j++ {
				s := idx.Shortcut(ni, i, j)
				if i == j {
					if s != 0 {
						t.Fatalf("self shortcut = %d", s)
					}
					continue
				}
				if s == graph.Inf {
					continue
				}
				global := solver.Distance(bs[i], bs[j])
				if s < global {
					t.Fatalf("shortcut %d->%d = %d below global %d", bs[i], bs[j], s, global)
				}
			}
		}
	}
}

func idxBorders(idx *road.Index, ni int32) []int32 {
	return idx.BordersOf(ni)
}

func TestKNNMatchesBruteForce(t *testing.T) {
	g := testGraph(t, 62, 18, 18)
	idx := buildLevels(g, 4)
	rng := rand.New(rand.NewSource(5))
	for _, density := range []float64{0.003, 0.02, 0.2} {
		objs := knn.NewObjectSet(g, gen.Uniform(g, density, 88))
		ad := idx.NewAssociationDirectory(objs)
		m := road.NewKNN(idx, ad)
		for trial := 0; trial < 20; trial++ {
			q := int32(rng.Intn(g.NumVertices()))
			for _, k := range []int{1, 5, 10} {
				got := m.KNN(q, k)
				want := knn.BruteForce(g, objs, q, k)
				if knn.CheckAnswer(g, objs, q, got, want) != nil {
					t.Fatalf("d=%v q=%d k=%d: got %s want %s", density, q, k,
						knn.FormatResults(got), knn.FormatResults(want))
				}
			}
		}
	}
}

func TestKNNTravelTime(t *testing.T) {
	g := testGraph(t, 63, 16, 16).View(graph.TravelTime)
	idx := buildLevels(g, 4)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.01, 9))
	m := road.NewKNN(idx, idx.NewAssociationDirectory(objs))
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 15; trial++ {
		q := int32(rng.Intn(g.NumVertices()))
		got := m.KNN(q, 10)
		want := knn.BruteForce(g, objs, q, 10)
		if knn.CheckAnswer(g, objs, q, got, want) != nil {
			t.Fatalf("q=%d: got %s want %s", q, knn.FormatResults(got), knn.FormatResults(want))
		}
	}
}

func TestKNNSparseObjectsFarQuery(t *testing.T) {
	// Sparse objects force long expansions where bypassing matters most.
	g := testGraph(t, 64, 20, 20)
	idx := buildLevels(g, 5)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.002, 10))
	m := road.NewKNN(idx, idx.NewAssociationDirectory(objs))
	for _, q := range []int32{0, int32(g.NumVertices() / 2), int32(g.NumVertices() - 1)} {
		got := m.KNN(q, 3)
		want := knn.BruteForce(g, objs, q, 3)
		if knn.CheckAnswer(g, objs, q, got, want) != nil {
			t.Fatalf("q=%d: got %s want %s", q, knn.FormatResults(got), knn.FormatResults(want))
		}
	}
	if m.VerticesBypassed <= 0 {
		t.Fatal("expected some bypassing on sparse objects")
	}
}

func TestAssociationDirectory(t *testing.T) {
	g := testGraph(t, 65, 12, 12)
	idx := buildLevels(g, 3)
	objs := knn.NewObjectSet(g, []int32{5})
	ad := idx.NewAssociationDirectory(objs)
	if !ad.IsObject(5) || ad.IsObject(6) {
		t.Fatal("IsObject wrong")
	}
	// Exactly the ancestor chain of vertex 5's leaf must have objects.
	pt := idx.PT
	onChain := map[int32]bool{}
	for n := pt.LeafOf[5]; n != -1; n = pt.Nodes[n].Parent {
		onChain[n] = true
	}
	for ni := range pt.Nodes {
		if ad.HasObjects(int32(ni)) != onChain[int32(ni)] {
			t.Fatalf("HasObjects(%d) = %v, want %v", ni, ad.HasObjects(int32(ni)), onChain[int32(ni)])
		}
	}
	if ad.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestKNNMoreThanAvailable(t *testing.T) {
	g := testGraph(t, 66, 10, 10)
	idx := buildLevels(g, 3)
	objs := knn.NewObjectSet(g, []int32{3, 7})
	m := road.NewKNN(idx, idx.NewAssociationDirectory(objs))
	got := m.KNN(0, 10)
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2", len(got))
	}
}

func TestDefaultLevelsScaleWithSize(t *testing.T) {
	small := road.Build(testGraph(t, 67, 8, 8))
	big := road.Build(testGraph(t, 67, 24, 24))
	if big.Levels <= small.Levels {
		t.Fatalf("levels: small=%d big=%d", small.Levels, big.Levels)
	}
	if small.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

// TestKNNInterrupt pins ROAD's share of "a deadline is a deadline": the
// installed check is polled every knn.InterruptStride settled vertices, a
// true return stops the scan there with a prefix of the full answer, and a
// nil check restores the uninterrupted scan.
func TestKNNInterrupt(t *testing.T) {
	g := testGraph(t, 64, 40, 40)
	idx := road.Build(g)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 9))
	x := road.NewKNN(idx, idx.NewAssociationDirectory(objs))
	k := objs.Len() + 1 // more than exist: the scan must exhaust the graph
	full := x.KNN(0, k)
	if len(full) != objs.Len() || x.VisitedVertices < 3*knn.InterruptStride {
		t.Fatalf("fixture too small: %d results, %d settled", len(full), x.VisitedVertices)
	}

	polls := 0
	x.SetInterrupt(func() bool { polls++; return polls == 2 })
	part := x.KNN(0, k)
	if polls != 2 || x.VisitedVertices != 2*knn.InterruptStride {
		t.Fatalf("interrupted after %d polls and %d settled vertices, want 2 and %d", polls, x.VisitedVertices, 2*knn.InterruptStride)
	}
	if len(part) >= len(full) || !knn.SameResults(part, full[:len(part)]) {
		t.Fatalf("interrupted answer (%d results) is not a proper prefix of the full one (%d)", len(part), len(full))
	}

	x.SetInterrupt(nil)
	if again := x.KNN(0, k); !knn.SameResults(again, full) {
		t.Fatal("scan after clearing the interrupt differs from the first")
	}
}

// TestStopsWhenSetExhausted puts three objects next to the query and asks
// for ten: the answer is brute force's, and the search stops once the
// third object is settled, visiting exactly what k = 3 visits.
func TestStopsWhenSetExhausted(t *testing.T) {
	g := testGraph(t, 67, 30, 30)
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
	idx := buildLevels(g, 3)
	x := road.NewKNN(idx, idx.NewAssociationDirectory(objs))
	x.KNN(q, 3)
	exact := x.VisitedVertices
	got := x.KNN(q, 10)
	if want := knn.BruteForce(g, objs, q, 10); knn.CheckAnswer(g, objs, q, got, want) != nil {
		t.Fatalf("got %s want %s", knn.FormatResults(got), knn.FormatResults(want))
	}
	if x.VisitedVertices != exact || x.VisitedVertices >= g.NumVertices() {
		t.Fatalf("k = 10 visited %d vertices of %d, k = 3 visits %d", x.VisitedVertices, g.NumVertices(), exact)
	}
}
