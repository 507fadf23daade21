package ine_test

import (
	"slices"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
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

// BenchmarkINERangeSparse is the expansion side of the range pick (its
// Euclidean-restriction twin is internal/ier's BenchmarkIERPHLRangeSparse):
// the objects within the median 10th-neighbour distance, density 0.001 on
// NW — the regime the planner takes away from INE. results/op is what the
// query returns, settled/op the expansion behind it.
func BenchmarkINERangeSparse(b *testing.B) {
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.001, 1))
	x := ine.New(g, objs)
	queries := gen.QueryVertices(g, 96, 2)
	tenth := make([]graph.Dist, len(queries))
	for i, q := range queries {
		tenth[i] = knn.BruteForce(g, objs, q, 10)[9].Dist
	}
	slices.Sort(tenth)
	radius := tenth[len(tenth)/2]
	var dst []knn.Result
	results, settled := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = x.RangeAppend(queries[i%len(queries)], radius, dst[:0])
		results += len(dst)
		settled += x.VisitedVertices
	}
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
}
