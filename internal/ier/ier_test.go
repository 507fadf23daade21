package ier_test

import (
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/ier"
	"rnknn/internal/knn"
)

func setup(t testing.TB, seed int64) (*graph.Graph, *knn.ObjectSet, []int32) {
	t.Helper()
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 18, Cols: 18, Seed: seed})
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.02, seed+1))
	queries := gen.QueryVertices(g, 30, seed+2)
	return g, objs, queries
}

func TestIERDijkMatchesBruteForce(t *testing.T) {
	g, objs, queries := setup(t, 31)
	x := ier.New("IER-Dijk", g, objs, &ier.DijkstraFactory{G: g})
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

func TestIERTravelTimeLowerBound(t *testing.T) {
	g, objs, queries := setup(t, 32)
	tg := g.View(graph.TravelTime)
	x := ier.New("IER-Dijk", tg, objs, &ier.DijkstraFactory{G: tg})
	for _, q := range queries {
		got := x.KNN(q, 10)
		want := knn.BruteForce(tg, objs, q, 10)
		if knn.CheckAnswer(tg, objs, q, got, want) != nil {
			t.Fatalf("time q=%d: got %s want %s", q, knn.FormatResults(got), knn.FormatResults(want))
		}
	}
}

func TestIERKExceedsObjects(t *testing.T) {
	g, _, _ := setup(t, 33)
	objs := knn.NewObjectSet(g, []int32{1, 2, 3})
	x := ier.New("IER-Dijk", g, objs, &ier.DijkstraFactory{G: g})
	got := x.KNN(9, 50)
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Dist > got[i].Dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestIERStatisticsPopulated(t *testing.T) {
	g, objs, queries := setup(t, 34)
	x := ier.New("IER-Dijk", g, objs, &ier.DijkstraFactory{G: g})
	_ = x.KNN(queries[0], 10)
	if x.OracleCalls < 10 {
		t.Fatalf("OracleCalls = %d, want >= k", x.OracleCalls)
	}
	if x.FalseHits < 0 || x.FalseHits > x.OracleCalls {
		t.Fatalf("FalseHits = %d out of range", x.FalseHits)
	}
}

func TestOracleFactoryAdapter(t *testing.T) {
	g, objs, queries := setup(t, 35)
	// A DistanceOracle backed by a fresh Dijkstra per call; slow but exact.
	x := ier.New("IER-oracle", g, objs, &ier.OracleFactory{Oracle: exactOracle{g}})
	for _, q := range queries[:5] {
		got := x.KNN(q, 5)
		want := knn.BruteForce(g, objs, q, 5)
		if knn.CheckAnswer(g, objs, q, got, want) != nil {
			t.Fatalf("q=%d: got %s want %s", q, knn.FormatResults(got), knn.FormatResults(want))
		}
	}
}

type exactOracle struct{ g *graph.Graph }

func (o exactOracle) Name() string { return "exact" }
func (o exactOracle) Distance(s, t int32) graph.Dist {
	return knn.BruteForce(o.g, knn.NewObjectSet(o.g, []int32{t}), s, 1)[0].Dist
}

// TestIERClusteredEvictions covers the eviction-heavy regime the stamped
// evicted set replaced a per-displacement map allocation for: clustered
// objects on a travel-time view, where Euclidean candidate order diverges
// hardest from network-distance order, so the top-k heap displaces (and
// lazily invalidates) many provisional candidates per query. Reusing one
// IER instance across all queries also proves an earlier query's evictions
// never leak into the next (the stamped set resets in O(1)).
func TestIERClusteredEvictions(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "ev", Rows: 20, Cols: 20, Seed: 77})
	tg := g.View(graph.TravelTime)
	objs := knn.NewObjectSet(tg, gen.Clustered(tg, 5, 40, 78))
	x := ier.New("IER-Dijk", tg, objs, &ier.DijkstraFactory{G: tg})
	queries := gen.QueryVertices(tg, 40, 79)
	evictions := 0
	for _, q := range queries {
		for _, k := range []int{4, 10, 25} {
			got := x.KNN(q, k)
			evictions += x.Evictions
			want := knn.BruteForce(tg, objs, q, k)
			if knn.CheckAnswer(tg, objs, q, got, want) != nil {
				t.Fatalf("q=%d k=%d: got %s want %s", q, k,
					knn.FormatResults(got), knn.FormatResults(want))
			}
		}
	}
	if evictions == 0 {
		t.Fatal("workload displaced no candidates; eviction regime not reached")
	}
}
