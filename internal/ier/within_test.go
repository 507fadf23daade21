package ier_test

import (
	"math"
	"testing"

	"rnknn/internal/ch"
	"rnknn/internal/gen"
	"rnknn/internal/geo"
	"rnknn/internal/graph"
	"rnknn/internal/ier"
	"rnknn/internal/knn"
	"rnknn/internal/phl"
)

// recordingFactory wraps a source factory and records the target of every
// oracle call made since the last reset.
type recordingFactory struct {
	knn.SourceFactory
	src     knn.SourceOracle
	targets []int32
}

func (f *recordingFactory) NewSource(s int32) knn.SourceOracle {
	f.src = f.SourceFactory.NewSource(s)
	return f
}

func (f *recordingFactory) DistanceTo(t int32) graph.Dist {
	f.targets = append(f.targets, t)
	return f.src.DistanceTo(t)
}

// TestKNNWithinContract holds KNNWithinAppend to its definition — KNNAppend
// filtered to distance <= bound, up to ties — at bounds 0, the exact
// distance of an object and graph.Inf, on travel distance, travel time and
// a lattice of ties, and checks the stop rule it shares with RangeAppend: no
// oracle call is made on a candidate whose Euclidean lower bound
// floor(dE/S) exceeds the bound.
func TestKNNWithinContract(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Network(gen.NetworkSpec{Name: "distance", Rows: 18, Cols: 18, Seed: 51}),
		gen.Network(gen.NetworkSpec{Name: "time", Rows: 16, Cols: 20, Seed: 52}).View(graph.TravelTime),
		unitGrid(20, 20),
	} {
		objs := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 53))
		invSpeed := 1 / g.MaxSpeed()
		for _, f := range []*recordingFactory{
			{SourceFactory: phl.Build(g, ch.Build(g)).NewSource()},
			{SourceFactory: &ier.DijkstraFactory{G: g}},
		} {
			x := ier.New("IER-"+f.Name(), g, objs, f)
			for _, q := range gen.QueryVertices(g, 15, 54) {
				all := knn.BruteForce(g, objs, q, objs.Len())
				from := geo.Point{X: g.X[q], Y: g.Y[q]}
				for _, bound := range []graph.Dist{0, all[min(2, len(all)-1)].Dist, graph.Inf} {
					for _, k := range []int{1, 4, 12} {
						f.targets = f.targets[:0]
						got := x.KNNWithinAppend(q, k, bound, nil)
						for _, v := range f.targets {
							if lb := graph.Dist(math.Floor(from.Dist(geo.Point{X: g.X[v], Y: g.Y[v]}) * invSpeed)); lb > bound {
								t.Fatalf("%s on %s q=%d k=%d bound=%d: oracle called on %d, lower bound %d", x.Name(), g.Name, q, k, bound, v, lb)
							}
						}
						var want []knn.Result
						for _, r := range x.KNN(q, k) {
							if r.Dist <= bound {
								want = append(want, r)
							}
						}
						if !knn.SameResults(got, want) {
							t.Fatalf("%s on %s q=%d k=%d bound=%d: got %s, KNN filtered %s", x.Name(), g.Name, q, k, bound,
								knn.FormatResults(got), knn.FormatResults(want))
						}
					}
				}
			}
		}
	}
}
