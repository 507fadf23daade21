package ine_test

import (
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/ine"
	"rnknn/internal/knn"
)

// BenchmarkINESparse is the in-tree twin of rnbench's ine.sparse_us probe:
// k=10 on the NW network at object density 0.001, the regime where all the
// time is expansion. settled/op is the work the time buys.
func BenchmarkINESparse(b *testing.B) {
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	x := ine.New(g, knn.NewObjectSet(g, gen.Uniform(g, 0.001, 1)))
	queries := gen.QueryVertices(g, 64, 2)
	dst := make([]knn.Result, 0, 10)
	settled := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = x.KNNAppend(queries[i%len(queries)], 10, dst[:0])
		settled += x.VisitedVertices
	}
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
}
