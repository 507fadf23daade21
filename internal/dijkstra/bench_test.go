package dijkstra_test

import (
	"testing"

	"rnknn/internal/dijkstra"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
)

var benchSink graph.Dist

// BenchmarkSolverSettle is the in-tree twin of rnbench's dijkstra.settle_ns
// probe: the first 5,000 settles of a resumable expansion on NW, reported
// per settled vertex.
func BenchmarkSolverSettle(b *testing.B) {
	const settles = 5000
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	srcs := gen.QueryVertices(g, 32, 1)
	r := dijkstra.NewResumable(g, srcs[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(srcs[i%len(srcs)])
		for n := 0; n < settles; n++ {
			_, d, _ := r.Next()
			benchSink += d
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/settles, "ns/settle")
}
