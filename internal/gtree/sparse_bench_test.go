package gtree_test

import (
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/gtree"
	"rnknn/internal/knn"
)

// BenchmarkGtreeSparse is the in-tree twin of rnbench's gtree.sparse_us
// probe: k=10 on the NW network at object density 0.001, where the
// Algorithm 3 loop climbs high and enqueues many occupied children.
// pathcost/op is the border-to-border additions the time buys (Figure 9b).
func BenchmarkGtreeSparse(b *testing.B) { benchGtree(b, 0.001) }

// BenchmarkGtreeDense is the twin of gtree.dense_us: density 0.1, where
// the occurrence list holds the most objects, so its per-child occupancy
// test searches the longest array.
func BenchmarkGtreeDense(b *testing.B) { benchGtree(b, 0.1) }

func benchGtree(b *testing.B, density float64) {
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	idx := gtree.Build(g)
	x := gtree.NewKNN(idx, idx.NewOccurrenceList(knn.NewObjectSet(g, gen.Uniform(g, density, 1))))
	queries := gen.QueryVertices(g, 64, 2)
	dst := make([]knn.Result, 0, 10)
	paths := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = x.KNNAppend(queries[i%len(queries)], 10, dst[:0])
		paths += x.PathCost
	}
	b.ReportMetric(float64(paths)/float64(b.N), "pathcost/op")
}
