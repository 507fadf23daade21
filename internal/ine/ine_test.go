package ine_test

import (
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
			if !knn.SameResults(got, want) {
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
		if !knn.SameResults(got, want) {
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
	if !knn.SameResults(got, want) {
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
