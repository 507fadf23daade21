package silc_test

import (
	"math/rand"
	"testing"

	"rnknn/internal/dijkstra"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/silc"
)

func testIndex(t testing.TB, seed int64, rows, cols int) (*graph.Graph, *silc.Index) {
	t.Helper()
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: rows, Cols: cols, Seed: seed})
	return g, silc.Build(g)
}

func TestPathIsShortestPath(t *testing.T) {
	g, x := testIndex(t, 71, 12, 12)
	solver := dijkstra.NewSolver(g)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tv := int32(rng.Intn(g.NumVertices()))
		path := x.Path(s, tv)
		if path[0] != s || path[len(path)-1] != tv {
			t.Fatalf("path endpoints wrong: %v", path)
		}
		// Sum of edge weights along the path must equal d(s,t).
		total := graph.Dist(0)
		for i := 1; i < len(path); i++ {
			w, ok := g.EdgeWeightBetween(path[i-1], path[i])
			if !ok {
				t.Fatalf("path uses non-edge %d-%d", path[i-1], path[i])
			}
			total += graph.Dist(w)
		}
		if want := solver.Distance(s, tv); total != want {
			t.Fatalf("path length %d, want %d", total, want)
		}
	}
}

func TestRefinerBoundsAndConvergence(t *testing.T) {
	g, x := testIndex(t, 72, 12, 12)
	solver := dijkstra.NewSolver(g)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tv := int32(rng.Intn(g.NumVertices()))
		want := solver.Distance(s, tv)
		r := x.NewRefiner(s, tv)
		steps := 0
		for !r.Exact() {
			lb, ub := r.Bounds()
			if lb > want || ub < want {
				t.Fatalf("interval [%d,%d] excludes true distance %d", lb, ub, want)
			}
			r.Step()
			if steps++; steps > g.NumVertices() {
				t.Fatal("refinement did not converge")
			}
		}
		if got := r.RefineExact(); got != want {
			t.Fatalf("converged to %d, want %d", got, want)
		}
	}
}

func TestRefinerSelf(t *testing.T) {
	_, x := testIndex(t, 73, 8, 8)
	r := x.NewRefiner(5, 5)
	if !r.Exact() || r.RefineExact() != 0 {
		t.Fatal("self refinement should be exact zero")
	}
}

func TestChainOptimizationEquivalent(t *testing.T) {
	// High-chain network: forced moves must not change results but must
	// reduce lookups.
	g := gen.HighwayNetwork("hwy", 5, 5, 3)
	x := silc.Build(g)
	solver := dijkstra.NewSolver(g)
	rng := rand.New(rand.NewSource(4))
	lookupsOn, lookupsOff := 0, 0
	for trial := 0; trial < 20; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tv := int32(rng.Intn(g.NumVertices()))
		want := solver.Distance(s, tv)

		x.ChainOptimization = true
		rOn := x.NewRefiner(s, tv)
		if got := rOn.RefineExact(); got != want {
			t.Fatalf("chain-opt distance %d, want %d", got, want)
		}
		lookupsOn += rOn.Lookups

		x.ChainOptimization = false
		rOff := x.NewRefiner(s, tv)
		if got := rOff.RefineExact(); got != want {
			t.Fatalf("no-chain distance %d, want %d", got, want)
		}
		lookupsOff += rOff.Lookups
	}
	x.ChainOptimization = true
	if lookupsOn*2 > lookupsOff {
		t.Fatalf("chain optimisation saved too little: on=%d off=%d", lookupsOn, lookupsOff)
	}
}

func TestLambdaRangeCoversPairRatios(t *testing.T) {
	g, x := testIndex(t, 74, 10, 10)
	solver := dijkstra.NewSolver(g)
	s := int32(3)
	// Over the full rank range, lambda must bound every vertex's ratio.
	lamLo, lamHi, scanned := x.LambdaRange(s, 0, int32(g.NumVertices()-1))
	if scanned <= 0 {
		t.Fatal("no blocks scanned")
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if v == s {
			continue
		}
		de := g.Euclid(s, v)
		if de < 1e-9 {
			continue
		}
		ratio := float64(solver.Distance(s, v)) / de
		if ratio < lamLo-1e-6 || ratio > lamHi+1e-6 {
			t.Fatalf("ratio %v outside lambda range [%v,%v]", ratio, lamLo, lamHi)
		}
	}
}

func TestDBENNMatchesBruteForce(t *testing.T) {
	g, x := testIndex(t, 75, 14, 14)
	rng := rand.New(rand.NewSource(5))
	for _, density := range []float64{0.01, 0.05, 0.3} {
		objs := knn.NewObjectSet(g, gen.Uniform(g, density, 55))
		m := silc.NewDBENN(x, objs)
		for trial := 0; trial < 15; trial++ {
			q := int32(rng.Intn(g.NumVertices()))
			for _, k := range []int{1, 5, 10} {
				got := m.KNN(q, k)
				want := knn.BruteForce(g, objs, q, k)
				if !knn.SameResults(got, want) {
					t.Fatalf("d=%v q=%d k=%d: got %s want %s", density, q, k,
						knn.FormatResults(got), knn.FormatResults(want))
				}
			}
		}
	}
}

func TestDisBrwOHMatchesBruteForce(t *testing.T) {
	g, x := testIndex(t, 76, 14, 14)
	rng := rand.New(rand.NewSource(6))
	for _, density := range []float64{0.02, 0.2} {
		objs := knn.NewObjectSet(g, gen.Uniform(g, density, 66))
		// Small leaf cap to force hierarchy traversal.
		oh := x.NewObjectHierarchy(objs, 4)
		m := silc.NewDisBrw(x, oh)
		for trial := 0; trial < 15; trial++ {
			q := int32(rng.Intn(g.NumVertices()))
			for _, k := range []int{1, 5, 10} {
				got := m.KNN(q, k)
				want := knn.BruteForce(g, objs, q, k)
				if !knn.SameResults(got, want) {
					t.Fatalf("d=%v q=%d k=%d: got %s want %s", density, q, k,
						knn.FormatResults(got), knn.FormatResults(want))
				}
			}
		}
		if m.ScannedBlocks <= 0 {
			t.Fatal("OH variant scanned no blocks")
		}
	}
}

func TestDBENNClusteredObjects(t *testing.T) {
	g, x := testIndex(t, 77, 14, 14)
	objs := knn.NewObjectSet(g, gen.Clustered(g, 6, 5, 8))
	m := silc.NewDBENN(x, objs)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		q := int32(rng.Intn(g.NumVertices()))
		got := m.KNN(q, 5)
		want := knn.BruteForce(g, objs, q, 5)
		if !knn.SameResults(got, want) {
			t.Fatalf("q=%d: got %s want %s", q, knn.FormatResults(got), knn.FormatResults(want))
		}
	}
}

func TestKNNMoreThanAvailable(t *testing.T) {
	g, x := testIndex(t, 78, 8, 8)
	objs := knn.NewObjectSet(g, []int32{1, 9, 17})
	m := silc.NewDBENN(x, objs)
	if got := m.KNN(0, 10); len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	oh := x.NewObjectHierarchy(objs, 2)
	m2 := silc.NewDisBrw(x, oh)
	if got := m2.KNN(0, 10); len(got) != 3 {
		t.Fatalf("OH: got %d results, want 3", len(got))
	}
}

func TestIndexStats(t *testing.T) {
	g, x := testIndex(t, 79, 10, 10)
	if x.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
	avg := x.AvgBlocks()
	if avg < 1 || avg > float64(g.NumVertices()) {
		t.Fatalf("AvgBlocks = %v out of range", avg)
	}
	if x.Rank(0) < 0 || int(x.Rank(0)) >= g.NumVertices() {
		t.Fatal("Rank out of range")
	}
}

func TestFirstMoveAgreesWithDistances(t *testing.T) {
	g, x := testIndex(t, 80, 10, 10)
	solver := dijkstra.NewSolver(g)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tv := int32(rng.Intn(g.NumVertices()))
		if s == tv {
			if x.FirstMove(s, tv) != s {
				t.Fatal("FirstMove(s,s) != s")
			}
			continue
		}
		f := x.FirstMove(s, tv)
		w, ok := g.EdgeWeightBetween(s, f)
		if !ok {
			t.Fatalf("first move %d not adjacent to %d", f, s)
		}
		if graph.Dist(w)+solver.Distance(f, tv) != solver.Distance(s, tv) {
			t.Fatalf("first move %d not on a shortest path %d->%d", f, s, tv)
		}
	}
}
