package gtree_test

import (
	"math/rand"
	"testing"

	"rnknn/internal/dijkstra"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/gtree"
	"rnknn/internal/knn"
	"rnknn/internal/partition"
)

func testGraph(t testing.TB, seed int64, rows, cols int) *graph.Graph {
	t.Helper()
	return gen.Network(gen.NetworkSpec{Name: "t", Rows: rows, Cols: cols, Seed: seed})
}

// buildTau builds a G-tree over a fanout-4 partition with leaf capacity tau.
func buildTau(g *graph.Graph, tau int) *gtree.Index {
	return gtree.BuildOnPartition(g, partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: tau}), tau)
}

func TestSourceDistanceMatchesDijkstra(t *testing.T) {
	g := testGraph(t, 41, 16, 16)
	idx := buildTau(g, 32)
	solver := dijkstra.NewSolver(g)
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	for trial := 0; trial < 25; trial++ {
		s := int32(rng.Intn(n))
		src := idx.NewSource(s)
		// Repeated targets from one source exercise materialization.
		for i := 0; i < 20; i++ {
			tv := int32(rng.Intn(n))
			got := src.DistanceTo(tv)
			want := solver.Distance(s, tv)
			if got != want {
				t.Fatalf("d(%d,%d) = %d, want %d", s, tv, got, want)
			}
		}
	}
}

func TestSourceSameLeafDistances(t *testing.T) {
	g := testGraph(t, 42, 14, 14)
	idx := buildTau(g, 40)
	solver := dijkstra.NewSolver(g)
	// Pick a source and query every vertex of its own leaf.
	s := int32(7)
	src := idx.NewSource(s)
	leaf := idx.PT.LeafOf[s]
	for _, tv := range idx.PT.Nodes[leaf].Vertices {
		got := src.DistanceTo(tv)
		want := solver.Distance(s, tv)
		if got != want {
			t.Fatalf("same-leaf d(%d,%d) = %d, want %d", s, tv, got, want)
		}
	}
}

func TestSourceMaterializationCheaper(t *testing.T) {
	g := testGraph(t, 43, 16, 16)
	idx := buildTau(g, 32)
	// Distances to many targets in one far leaf: the second query from the
	// same source must add less path cost than the first.
	src := idx.NewSource(0)
	far := int32(g.NumVertices() - 1)
	_ = src.DistanceTo(far)
	c1 := src.PathCost
	_ = src.DistanceTo(far - 1) // likely same or nearby leaf: reuse
	c2 := src.PathCost - c1
	if c2 >= c1 {
		t.Fatalf("materialization did not reduce path cost: first=%d second=%d", c1, c2)
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	g := testGraph(t, 44, 18, 18)
	idx := buildTau(g, 32)
	rng := rand.New(rand.NewSource(2))
	for _, density := range []float64{0.003, 0.02, 0.2} {
		objs := knn.NewObjectSet(g, gen.Uniform(g, density, 77))
		ol := idx.NewOccurrenceList(objs)
		m := gtree.NewKNN(idx, ol)
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

func TestKNNOriginalLeafAlsoCorrect(t *testing.T) {
	g := testGraph(t, 45, 16, 16)
	idx := buildTau(g, 48)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.1, 9))
	ol := idx.NewOccurrenceList(objs)
	m := gtree.NewKNN(idx, ol)
	m.ImprovedLeaf = false
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		q := int32(rng.Intn(g.NumVertices()))
		got := m.KNN(q, 5)
		want := knn.BruteForce(g, objs, q, 5)
		if knn.CheckAnswer(g, objs, q, got, want) != nil {
			t.Fatalf("q=%d: got %s want %s", q, knn.FormatResults(got), knn.FormatResults(want))
		}
	}
}

func TestKNNTravelTime(t *testing.T) {
	g := testGraph(t, 46, 16, 16).View(graph.TravelTime)
	idx := buildTau(g, 32)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.01, 5))
	ol := idx.NewOccurrenceList(objs)
	m := gtree.NewKNN(idx, ol)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		q := int32(rng.Intn(g.NumVertices()))
		got := m.KNN(q, 10)
		want := knn.BruteForce(g, objs, q, 10)
		if knn.CheckAnswer(g, objs, q, got, want) != nil {
			t.Fatalf("q=%d: got %s want %s", q, knn.FormatResults(got), knn.FormatResults(want))
		}
	}
}

func TestKNNQueryOnObject(t *testing.T) {
	g := testGraph(t, 47, 12, 12)
	idx := buildTau(g, 24)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 6))
	m := gtree.NewKNN(idx, idx.NewOccurrenceList(objs))
	q := objs.Vertices()[3]
	got := m.KNN(q, 1)
	if len(got) != 1 || got[0].Vertex != q || got[0].Dist != 0 {
		t.Fatalf("query on object: %s", knn.FormatResults(got))
	}
}

func TestKNNMoreThanAvailable(t *testing.T) {
	g := testGraph(t, 48, 12, 12)
	idx := buildTau(g, 24)
	objs := knn.NewObjectSet(g, []int32{2, 40, 90})
	m := gtree.NewKNN(idx, idx.NewOccurrenceList(objs))
	got := m.KNN(5, 10)
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
}

func TestOccurrenceListCounts(t *testing.T) {
	g := testGraph(t, 49, 12, 12)
	idx := buildTau(g, 24)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 7))
	ol := idx.NewOccurrenceList(objs)
	if int(ol.Count(0)) != objs.Len() {
		t.Fatalf("root count %d, want %d", ol.Count(0), objs.Len())
	}
	// Every object must be in exactly one leaf list.
	total := 0
	for ni := 0; ni < idx.NumNodes(); ni++ {
		total += len(ol.LeafObjects(int32(ni)))
	}
	if total != objs.Len() {
		t.Fatalf("leaf lists hold %d, want %d", total, objs.Len())
	}
	if ol.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestFactoryAsIEROracle(t *testing.T) {
	g := testGraph(t, 50, 14, 14)
	idx := buildTau(g, 32)
	f := &gtree.Factory{Idx: idx}
	if f.Name() != "MGtree" {
		t.Fatalf("factory name %q", f.Name())
	}
	solver := dijkstra.NewSolver(g)
	src := f.NewSource(12)
	for _, tv := range []int32{0, 33, 77, 120} {
		if got, want := src.DistanceTo(tv), solver.Distance(12, tv); got != want {
			t.Fatalf("oracle d(12,%d) = %d, want %d", tv, got, want)
		}
	}
}

func TestIndexSizeBytesPositiveAndGrows(t *testing.T) {
	small := buildTau(testGraph(t, 51, 10, 10), 32)
	large := buildTau(testGraph(t, 51, 20, 20), 32)
	if small.SizeBytes() <= 0 || large.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("sizes: small=%d large=%d", small.SizeBytes(), large.SizeBytes())
	}
}

func TestTinyGraphSingleLeaf(t *testing.T) {
	// Graph smaller than tau: the tree is a single leaf (the root).
	g := testGraph(t, 52, 4, 4)
	idx := buildTau(g, 4096)
	objs := knn.NewObjectSet(g, []int32{1, 5, 9})
	m := gtree.NewKNN(idx, idx.NewOccurrenceList(objs))
	got := m.KNN(0, 2)
	want := knn.BruteForce(g, objs, 0, 2)
	if knn.CheckAnswer(g, objs, 0, got, want) != nil {
		t.Fatalf("single leaf: got %s want %s", knn.FormatResults(got), knn.FormatResults(want))
	}
}

// TestKNNInterrupt pins G-tree's share of "a deadline is a deadline": the
// installed check is polled once per iteration of the Algorithm 3 loop and
// every knn.InterruptStride settled vertices of the source-leaf search, a
// true return stops the scan there with a prefix of the full answer, and a
// nil check restores the uninterrupted scan.
func TestKNNInterrupt(t *testing.T) {
	g := testGraph(t, 64, 40, 40)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 9))
	k := objs.Len() + 1 // more than exist: the scan must exhaust the tree
	for _, tc := range []struct {
		name string
		tau  int
		// wantPolls is the uninterrupted scan's poll count, where it is known.
		wantPolls int
	}{
		// Small leaves: nearly every poll is the main loop's.
		{name: "tree", tau: 32},
		// One leaf holding the whole network: the main loop never runs, so
		// every poll is the leaf search's stride.
		{name: "leaf", tau: g.NumVertices(), wantPolls: g.NumVertices() / knn.InterruptStride},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx := buildTau(g, tc.tau)
			x := gtree.NewKNN(idx, idx.NewOccurrenceList(objs))
			full := x.KNN(0, k)
			if len(full) != objs.Len() {
				t.Fatalf("full scan found %d of %d objects", len(full), objs.Len())
			}
			polls := 0
			x.SetInterrupt(func() bool { polls++; return false })
			if got := x.KNN(0, k); !knn.SameResults(got, full) {
				t.Fatal("a check that never fires changed the answer")
			}
			if polls < 3 || (tc.wantPolls > 0 && polls != tc.wantPolls) {
				t.Fatalf("uninterrupted scan polled %d times, want %d (0: at least 3)", polls, tc.wantPolls)
			}

			polls = 0
			x.SetInterrupt(func() bool { polls++; return polls == 2 })
			part := x.KNN(0, k)
			if polls != 2 {
				t.Fatalf("scan went on for %d polls after the check fired on the 2nd", polls)
			}
			if len(part) >= len(full) || !knn.SameResults(part, full[:len(part)]) {
				t.Fatalf("interrupted answer (%d results) is not a proper prefix of the full one (%d)", len(part), len(full))
			}

			x.SetInterrupt(nil)
			if again := x.KNN(0, k); !knn.SameResults(again, full) {
				t.Fatal("scan after clearing the interrupt differs from the first")
			}
		})
	}
}
