package ier_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rnknn/internal/ch"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/ier"
	"rnknn/internal/knn"
	"rnknn/internal/phl"
	"rnknn/internal/rtree"
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

// BenchmarkIERPHLRotating reads what lib-auto's category rotation costs
// IER-PHL in PHL label misses: k = 50 on NW at density 0.01, each query's
// object set drawn at random from one set (sets=1) or from sixteen
// (sets=16), the session rebound to it before the query, as pkg/rnknn's
// pooled sessions are. Sixteen sets mean sixteen candidate populations,
// so the label lines of their candidates stop fitting in cache; the
// control (sets=16/same-vertices) rotates sixteen R-trees over one vertex
// set, which moves the trees but not the candidates. It has no gate: on
// one pinned CPU (20,000 queries, median of three) it read 26.8 µs at
// sets=1, 45.9 µs at sets=16 (+71 %) and 28.4 µs for the control, so the
// cost is the candidates' label lines, not R-tree nodes.
func BenchmarkIERPHLRotating(b *testing.B) {
	g, labels := benchNW()
	queries := gen.QueryVertices(g, 96, 2)
	for _, c := range []struct {
		name string
		sets int
		same bool
	}{{"sets=1", 1, false}, {"sets=16", 16, false}, {"sets=16/same-vertices", 16, true}} {
		b.Run(c.name, func(b *testing.B) {
			objs := make([]*knn.ObjectSet, c.sets)
			trees := make([]*rtree.Tree, c.sets)
			for i := range objs {
				seed := int64(1 + i)
				if c.same {
					seed = 1
				}
				objs[i] = knn.NewObjectSet(g, gen.Uniform(g, 0.01, seed))
				trees[i] = ier.NewObjectTree(g, objs[i])
			}
			x := ier.NewWithTree("IER-PHL", g, objs[0], trees[0], labels.NewSource())
			draw := rand.New(rand.NewSource(3))
			order := make([]int, 1024)
			for i := range order {
				order[i] = draw.Intn(c.sets)
			}
			dst := make([]knn.Result, 0, 50)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := order[i%len(order)]
				x.Rebind(objs[s], trees[s])
				dst = x.KNNAppend(queries[i%len(queries)], 50, dst[:0])
			}
		})
	}
}

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
