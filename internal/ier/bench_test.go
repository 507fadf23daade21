package ier_test

import (
	"slices"
	"sync"
	"testing"

	"rnknn/internal/ch"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/ier"
	"rnknn/internal/knn"
	"rnknn/internal/phl"
)

var benchNW = sync.OnceValues(func() (*graph.Graph, *phl.Index) {
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	return g, phl.Build(g, ch.Build(g))
})

// benchIERPHL is the in-tree twin of rnbench's ier.phl.*_us probes: IER
// over the PHL oracle as core wires it, k=10 on NW at the given object
// density. calls/op is the oracle work the time buys; what is left is the
// R-tree scan and the candidate heaps.
func benchIERPHL(b *testing.B, density float64) {
	g, labels := benchNW()
	x := ier.New("IER-PHL", g, knn.NewObjectSet(g, gen.Uniform(g, density, 1)), labels.NewSource())
	queries := gen.QueryVertices(g, 96, 2)
	dst := make([]knn.Result, 0, 10)
	calls := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = x.KNNAppend(queries[i%len(queries)], 10, dst[:0])
		calls += x.OracleCalls
	}
	b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
}

func BenchmarkIERPHLSparse(b *testing.B) { benchIERPHL(b, 0.001) }
func BenchmarkIERPHLDense(b *testing.B)  { benchIERPHL(b, 0.1) }

// BenchmarkIERPHLRangeSparse is the range twin of BenchmarkIERPHLSparse and
// the other side of internal/ine's BenchmarkINERangeSparse — what rnbench's
// lib-expand Range slot runs since the planner may pick either: the objects
// within the median 10th-neighbour distance, density 0.001 on NW. results/op
// is what the query returns, calls/op the oracle work behind it.
func BenchmarkIERPHLRangeSparse(b *testing.B) {
	g, labels := benchNW()
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.001, 1))
	x := ier.New("IER-PHL", g, objs, labels.NewSource())
	queries := gen.QueryVertices(g, 96, 2)
	tenth := make([]graph.Dist, len(queries))
	for i, q := range queries {
		tenth[i] = knn.BruteForce(g, objs, q, 10)[9].Dist
	}
	slices.Sort(tenth)
	radius := tenth[len(tenth)/2]
	var dst []knn.Result
	results, calls := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = x.RangeAppend(queries[i%len(queries)], radius, dst[:0])
		results += len(dst)
		calls += x.OracleCalls
	}
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
	b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
}
