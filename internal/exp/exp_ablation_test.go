package exp

import (
	"math/rand"
	"testing"

	"rnknn/internal/dijkstra"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/gtree"
	"rnknn/internal/ier"
	"rnknn/internal/knn"
	"rnknn/internal/partition"
)

// TestMatrixLayoutsAgree checks Figure 6's assembly against G-tree's matrix
// format: over every layout, the oracle answers Dijkstra's distance to every
// target and IER-Gt over it answers brute force's kNN.
func TestMatrixLayoutsAgree(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Network(gen.NetworkSpec{Name: "t", Rows: 20, Cols: 20, Seed: 111}),
		gen.Network(gen.NetworkSpec{Name: "t", Rows: 16, Cols: 18, Seed: 112}).View(graph.TravelTime),
	} {
		idx := gtree.BuildOnPartition(g, partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: 16}), 16)
		objs := knn.NewObjectSet(g, gen.Uniform(g, 0.02, 1))
		solver := dijkstra.NewSolver(g)
		want := make([]graph.Dist, g.NumVertices())
		rng := rand.New(rand.NewSource(3))
		for _, l := range []matrixLayout{arrayLayout, builtinMapLayout, openAddrLayout} {
			src := newLayoutSource(idx, newCells(idx, l))
			m := ier.New("IER-Gt", g, objs, src)
			for trial := 0; trial < 10; trial++ {
				q := int32(rng.Intn(g.NumVertices()))
				solver.All(q, want)
				oracle := src.NewSource(q)
				for v, d := range want {
					if got := oracle.DistanceTo(int32(v)); got != d {
						t.Fatalf("%v: d(%d,%d) = %d, want %d", l, q, v, got, d)
					}
				}
				for _, k := range []int{1, 5, 20} {
					if got, want := m.KNN(q, k), knn.BruteForce(g, objs, q, k); !knn.SameResults(got, want) {
						t.Fatalf("%v q=%d k=%d: %s, want %s", l, q, k, knn.FormatResults(got), knn.FormatResults(want))
					}
				}
			}
		}
	}
}

func TestLayoutStrings(t *testing.T) {
	if arrayLayout.String() != "Array" ||
		builtinMapLayout.String() != "Chained Hashing" ||
		openAddrLayout.String() != "Quad. Probing" {
		t.Fatal("layout names changed; experiment tables depend on them")
	}
}

func TestAblationVariantsAllCorrect(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 18, Cols: 18, Seed: 27})
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.02, 28))
	queries := gen.QueryVertices(g, 40, 29)
	rng := rand.New(rand.NewSource(5))
	for _, v := range []ineVariant{ineFirstCut, inePQueue, ineSettled, ineCSRGraph} {
		a := newINEAblation(g, objs, v)
		for trial := 0; trial < 10; trial++ {
			q := queries[rng.Intn(len(queries))]
			k := 1 + rng.Intn(10)
			got := a.KNN(q, k)
			want := knn.BruteForce(g, objs, q, k)
			if !knn.SameResults(got, want) {
				t.Fatalf("%s q=%d k=%d: got %s want %s", a.Name(), q, k,
					knn.FormatResults(got), knn.FormatResults(want))
			}
		}
	}
}
