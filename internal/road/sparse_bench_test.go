package road_test

import (
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/knn"
	"rnknn/internal/road"
)

// BenchmarkROADSparse is the in-tree twin of rnbench's road.sparse_us probe:
// k=10 on the NW network at object density 0.001. settled/op is the work
// the time buys (compare BenchmarkINESparse: the difference is what the
// Rnet shortcuts bypassed); rows/op counts the shortcut rows relaxed, the
// work the closed-row skip removes.
func BenchmarkROADSparse(b *testing.B) {
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	idx := road.Build(g)
	x := road.NewKNN(idx, idx.NewAssociationDirectory(knn.NewObjectSet(g, gen.Uniform(g, 0.001, 1))))
	queries := gen.QueryVertices(g, 64, 2)
	dst := make([]knn.Result, 0, 10)
	settled, rows := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = x.KNNAppend(queries[i%len(queries)], 10, dst[:0])
		settled += x.VisitedVertices
		rows += x.RowsRelaxed
	}
	b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}
