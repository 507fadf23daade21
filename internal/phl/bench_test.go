package phl_test

import (
	"math"
	"sync"
	"testing"

	"rnknn/internal/ch"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/phl"
)

var benchSink graph.Dist

// benchNW builds the NW network, its hierarchy and its labeling once for
// the package's benchmarks.
var benchNW = sync.OnceValues(func() (*graph.Graph, *phl.Index) {
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	return g, phl.Build(g, ch.Build(g))
})

// BenchmarkPHLDistance is the in-tree twin of rnbench's phl.dist_ns probe:
// one point-to-point label merge between random NW vertices.
func BenchmarkPHLDistance(b *testing.B) {
	g, x := benchNW()
	from, to := gen.QueryVertices(g, 1024, 1), gen.QueryVertices(g, 1024, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += x.Distance(from[i%1024], to[i%1024])
	}
}

// BenchmarkPHLSourceScan times one pinned DistanceTo, the call IER-PHL
// makes per candidate, with the source re-pinned every 16 calls (about one
// IER query's worth) so the scatter and un-scatter are in the figure.
func BenchmarkPHLSourceScan(b *testing.B) {
	g, x := benchNW()
	from, to := gen.QueryVertices(g, 1024, 1), gen.QueryVertices(g, 1024, 2)
	src := x.NewSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			src.NewSource(from[i/16%1024])
		}
		benchSink += src.DistanceTo(to[i%1024])
	}
}

// BenchmarkPHLBuild is the in-tree twin of rnbench's build.phl_s: labeling
// NW over a shared contraction hierarchy. entries/op is the label entries
// one build produces (1,683,394 on NW), the layer's work count.
func BenchmarkPHLBuild(b *testing.B) {
	g, _ := benchNW()
	h := ch.Build(g)
	var x *phl.Index
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = phl.Build(g, h)
	}
	b.ReportMetric(math.Round(x.AvgLabelSize()*float64(g.NumVertices())), "entries/op")
}
