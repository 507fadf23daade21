package ine

import (
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

// withinBounds are the bounds the contract is checked at for one query: 0,
// the exact distance of an object (the third nearest, so objects lie on both
// sides of it), and graph.Inf.
func withinBounds(all []knn.Result) []graph.Dist {
	return []graph.Dist{0, all[min(2, len(all)-1)].Dist, graph.Inf}
}

// filtered is the first k results of want at distance <= bound.
func filtered(want []knn.Result, k int, bound graph.Dist) []knn.Result {
	var out []knn.Result
	for _, r := range want {
		if r.Dist <= bound && len(out) < k {
			out = append(out, r)
		}
	}
	return out
}

// TestKNNWithinContract holds KNNWithinAppend to its definition — KNNAppend
// filtered to distance <= bound, up to ties — and checks that the bounded
// expansion labels (so settles) no vertex past the bound: every vertex the
// search left a label on this generation lies within it.
func TestKNNWithinContract(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "within", Rows: 18, Cols: 18, Seed: 41})
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.03, 42))
	x := New(g, objs)
	for _, q := range gen.QueryVertices(g, 25, 43) {
		all := x.KNN(q, objs.Len())
		for _, bound := range withinBounds(all) {
			for _, k := range []int{1, 4, 12} {
				got := x.KNNWithinAppend(q, k, bound, nil)
				for v := range int32(g.NumVertices()) {
					if d := x.dist.Get(v); d != graph.Inf && d > bound {
						t.Fatalf("q=%d k=%d bound=%d: vertex %d labelled at %d", q, k, bound, v, d)
					}
				}
				if want := filtered(x.KNN(q, k), k, bound); !knn.SameResults(got, want) {
					t.Fatalf("q=%d k=%d bound=%d: got %s, KNN filtered %s", q, k, bound, knn.FormatResults(got), knn.FormatResults(want))
				}
			}
		}
	}
}
