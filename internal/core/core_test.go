package core_test

import (
	"math/rand"
	"testing"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

func TestAllMethodsAgreeWithBruteForce(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 16, Cols: 16, Seed: 121})
	e := core.New(g)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.02, 9))
	rng := rand.New(rand.NewSource(1))
	queries := make([]int32, 8)
	for i := range queries {
		queries[i] = int32(rng.Intn(g.NumVertices()))
	}
	for _, kind := range core.Kinds() {
		m, err := e.NewSession(kind, e.NewBinding(objs, []core.MethodKind{kind}))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, q := range queries {
			got := m.KNN(q, 5)
			want := knn.BruteForce(g, objs, q, 5)
			if !knn.SameResults(got, want) {
				t.Fatalf("%v q=%d: got %s want %s", kind, q,
					knn.FormatResults(got), knn.FormatResults(want))
			}
		}
	}
}

func TestIndexesBuiltOnceAndTimed(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 12, Cols: 12, Seed: 122})
	e := core.New(g)
	a := e.GtreeIndex()
	b := e.GtreeIndex()
	if a != b {
		t.Fatal("G-tree rebuilt on second access")
	}
	if _, ok := e.BuiltIndexes()["Gtree"]; !ok {
		t.Fatal("build time not recorded")
	}
	// CH shared between PHL and TNR.
	_ = e.PHLIndex()
	chx := e.CHIndex()
	_ = e.TNRIndex()
	if e.CHIndex() != chx {
		t.Fatal("CH rebuilt")
	}
}

func TestIndexSizesPositive(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 10, Cols: 10, Seed: 123})
	e := core.New(g)
	for _, kind := range core.Kinds() {
		objs := knn.NewObjectSet(g, []int32{1, 2, 3})
		if _, err := e.NewSession(kind, e.NewBinding(objs, []core.MethodKind{kind})); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if s := e.IndexSize(kind); s <= 0 {
			t.Fatalf("%v size %d", kind, s)
		}
	}
}

func TestTravelTimeEngine(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 14, Cols: 14, Seed: 124}).View(graph.TravelTime)
	e := core.New(g)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.01, 2))
	kinds := core.Kinds()
	rng := rand.New(rand.NewSource(2))
	for _, kind := range kinds {
		m, err := e.NewSession(kind, e.NewBinding(objs, []core.MethodKind{kind}))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for trial := 0; trial < 5; trial++ {
			q := int32(rng.Intn(g.NumVertices()))
			got := m.KNN(q, 10)
			want := knn.BruteForce(g, objs, q, 10)
			if !knn.SameResults(got, want) {
				t.Fatalf("%v q=%d: got %s want %s", kind, q,
					knn.FormatResults(got), knn.FormatResults(want))
			}
		}
	}
}

func TestMethodNames(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 8, Cols: 8, Seed: 125})
	e := core.New(g)
	objs := knn.NewObjectSet(g, []int32{5})
	for _, kind := range core.Kinds() {
		m, err := e.NewSession(kind, e.NewBinding(objs, []core.MethodKind{kind}))
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() == "" {
			t.Fatalf("%v has empty name", kind)
		}
	}
}
