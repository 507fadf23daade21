package gtree_test

import (
	"math/rand"
	"testing"

	"rnknn/internal/dijkstra"
	"rnknn/internal/gen"
	"rnknn/internal/gtree"
	"rnknn/internal/knn"
)

func TestMatrixLayoutsAgree(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 14, Cols: 14, Seed: 111})
	idx := buildTau(g, 32)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.02, 1))
	ol := idx.NewOccurrenceList(objs)
	solver := dijkstra.NewSolver(g)
	rng := rand.New(rand.NewSource(3))
	layouts := []gtree.MatrixLayout{gtree.ArrayLayout, gtree.BuiltinMapLayout, gtree.OpenAddrLayout}
	for trial := 0; trial < 10; trial++ {
		q := int32(rng.Intn(g.NumVertices()))
		tv := int32(rng.Intn(g.NumVertices()))
		want := solver.Distance(q, tv)
		wantKNN := knn.BruteForce(g, objs, q, 5)
		for _, l := range layouts {
			idx.SetMatrixLayout(l)
			if got := idx.NewSource(q).DistanceTo(tv); got != want {
				t.Fatalf("%v: d(%d,%d)=%d want %d", l, q, tv, got, want)
			}
			m := gtree.NewKNN(idx, ol)
			if got := m.KNN(q, 5); !knn.SameResults(got, wantKNN) {
				t.Fatalf("%v kNN mismatch: %s vs %s", l, knn.FormatResults(got), knn.FormatResults(wantKNN))
			}
		}
	}
	idx.SetMatrixLayout(gtree.ArrayLayout)
	if idx.Layout() != gtree.ArrayLayout {
		t.Fatal("Layout not restored")
	}
}

func TestLayoutStrings(t *testing.T) {
	if gtree.ArrayLayout.String() != "Array" ||
		gtree.BuiltinMapLayout.String() != "Chained Hashing" ||
		gtree.OpenAddrLayout.String() != "Quad. Probing" {
		t.Fatal("layout names changed; experiment tables depend on them")
	}
}
