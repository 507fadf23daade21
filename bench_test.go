// Package rnknn's benchmark suite regenerates every table and figure of the
// paper's evaluation: each Benchmark below runs one experiment id from
// internal/exp at full harness scale and prints its tables. Networks and
// indexes are cached process-wide, so a full `go test -bench=.` builds each
// index once, then measures (the index-construction experiments fig8/fig26
// time the builds themselves).
//
// Micro-benchmarks at the bottom cover the Section 6.2 data-structure
// choices (priority queue without decrease-key; bit-array settled
// container) independently of any kNN method.
package rnknn

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rnknn/internal/bitset"
	"rnknn/internal/exp"
	"rnknn/internal/gen"
	"rnknn/internal/pqueue"
	api "rnknn/pkg/rnknn"
)

// benchCfg is the full-scale harness configuration used by every experiment
// benchmark. Lower Queries via -short if needed.
var benchCfg = exp.Config{Queries: 100, Scale: 1.0, Seed: 42}

var printOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(id, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			for _, t := range tables {
				fmt.Println(t)
			}
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkTable2Objects(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkFig4IERVariants(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig6DistanceMatrix(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7INEAblation(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8IndexBuild(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9NetworkSize(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10VaryingK(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFig11VaryingDensity(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12Clusters(b *testing.B)         { benchExperiment(b, "fig12") }
func BenchmarkFig13RealPOIs(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkFig14MinObjDist(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15RealPOIsK(b *testing.B)        { benchExperiment(b, "fig15") }
func BenchmarkFig16OriginalSettings(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17TravelTime(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkFig18ObjectIndexes(b *testing.B)    { benchExperiment(b, "fig18") }
func BenchmarkFig19DBENN(b *testing.B)            { benchExperiment(b, "fig19") }
func BenchmarkFig20Deg2Chains(b *testing.B)       { benchExperiment(b, "fig20") }
func BenchmarkFig22LeafSearch(b *testing.B)       { benchExperiment(b, "fig22") }
func BenchmarkFig23IERTravelTime(b *testing.B)    { benchExperiment(b, "fig23") }
func BenchmarkFig24TravelTimeNW(b *testing.B)     { benchExperiment(b, "fig24") }
func BenchmarkFig25TravelTimePOIs(b *testing.B)   { benchExperiment(b, "fig25") }
func BenchmarkFig26TravelTimeBuild(b *testing.B)  { benchExperiment(b, "fig26") }
func BenchmarkTable5Ranking(b *testing.B)         { benchExperiment(b, "table5") }

// --- Section 6.2 micro-ablations ---

// BenchmarkPQueueDuplicates measures the paper's recommended duplicate-
// tolerant heap under a Dijkstra-like push/pop mix.
func BenchmarkPQueueDuplicates(b *testing.B) {
	q := pqueue.NewQueue(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Reset()
		for j := 0; j < 1000; j++ {
			q.Push(int32(j%257), int64((j*2654435761)%100000))
			if j%3 == 0 && !q.Empty() {
				q.Pop()
			}
		}
		for !q.Empty() {
			q.Pop()
		}
	}
}

// BenchmarkPQueueDecreaseKey measures the indexed decrease-key heap on the
// same mix (the choice the paper rejects for road networks).
func BenchmarkPQueueDecreaseKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q := pqueue.NewIndexedQueue(1024)
		for j := 0; j < 1000; j++ {
			q.PushOrDecrease(int32(j%257), int64((j*2654435761)%100000))
			if j%3 == 0 && !q.Empty() {
				q.Pop()
			}
		}
		for !q.Empty() {
			q.Pop()
		}
	}
}

// BenchmarkSettledBitset and BenchmarkSettledMap compare the settled-vertex
// containers of Section 6.2 choice 2 over a fixed visit pattern.
func BenchmarkSettledBitset(b *testing.B) {
	s := bitset.New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for j := uint32(0); j < 20000; j++ {
			v := int32((j * 2654435761) & (1<<20 - 1))
			if !s.Get(v) {
				s.Set(v)
			}
		}
	}
}

func BenchmarkSettledMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := make(map[int32]bool)
		for j := uint32(0); j < 20000; j++ {
			v := int32((j * 2654435761) & (1<<20 - 1))
			if !s[v] {
				s[v] = true
			}
		}
	}
}

// --- Public API: pooled concurrent query throughput ---

// benchDB lazily opens one shared DB (G-tree, PHL and INE over a ~7k-vertex
// network) reused by every DB benchmark, mirroring how the experiment
// harness caches indexes.
var benchDB = struct {
	once sync.Once
	db   *api.DB
	qs   []int32
}{}

func sharedBenchDB(b *testing.B) (*api.DB, []int32) {
	benchDB.once.Do(func() {
		g := gen.Network(gen.NetworkSpec{Name: "dbbench", Rows: 48, Cols: 60, Seed: 13})
		db, err := api.Open(g,
			api.WithMethods(api.INE, api.IERPHL, api.Gtree),
			api.WithObjects(api.DefaultCategory, gen.Uniform(g, 0.001, 21)))
		if err != nil {
			panic(err)
		}
		benchDB.db = db
		benchDB.qs = gen.QueryVertices(g, 256, 17)
	})
	if benchDB.db == nil {
		b.Fatal("shared bench DB failed to open")
	}
	return benchDB.db, benchDB.qs
}

// BenchmarkDBConcurrentKNN measures pooled-session throughput of the public
// db.KNN under RunParallel, one sub-benchmark per method, so future PRs can
// track how the session pool scales with parallelism (compare ns/op across
// -cpu values).
func BenchmarkDBConcurrentKNN(b *testing.B) {
	db, qs := sharedBenchDB(b)
	ctx := context.Background()
	for _, m := range db.Methods() {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			var next atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q := qs[next.Add(1)%uint64(len(qs))]
					if _, err := db.KNN(ctx, q, 10, api.WithMethod(m)); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkDBConcurrentRange is the range-query companion (always INE).
func BenchmarkDBConcurrentRange(b *testing.B) {
	db, qs := sharedBenchDB(b)
	ctx := context.Background()
	b.ReportAllocs()
	var next atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := qs[next.Add(1)%uint64(len(qs))]
			if _, err := db.Range(ctx, q, 20000); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkDBConcurrentMixedSwap stresses the contended path the API is
// designed for: parallel kNN queries racing a category re-registration
// every 64 operations.
func BenchmarkDBConcurrentMixedSwap(b *testing.B) {
	db, qs := sharedBenchDB(b)
	g := db.Graph()
	setA := gen.Uniform(g, 0.001, 21)
	setB := gen.Uniform(g, 0.002, 34)
	ctx := context.Background()
	b.ReportAllocs()
	var next atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			if i%64 == 0 {
				set := setA
				if (i/64)%2 == 1 {
					set = setB
				}
				if err := db.RegisterObjects(api.DefaultCategory, set); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			q := qs[i%uint64(len(qs))]
			if _, err := db.KNN(ctx, q, 10, api.WithMethod(api.Gtree)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- Public API: allocation trajectory ---

// allocDB lazily opens the zero-allocation benchmark DB: a small network so
// every required method is cheap to construct, with a dense-enough default
// category that k=10 queries always fill.
var allocDB = struct {
	once sync.Once
	db   *api.DB
	qs   []int32
}{}

func sharedAllocDB(b *testing.B) (*api.DB, []int32) {
	allocDB.once.Do(func() {
		g := gen.Network(gen.NetworkSpec{Name: "dballoc", Rows: 24, Cols: 24, Seed: 19})
		db, err := api.Open(g,
			api.WithMethods(api.INE, api.IERPHL, api.IERCH, api.Gtree, api.ROAD),
			api.WithObjects(api.DefaultCategory, gen.Uniform(g, 0.05, 27)))
		if err != nil {
			panic(err)
		}
		allocDB.db = db
		allocDB.qs = gen.QueryVertices(g, 128, 31)
	})
	if allocDB.db == nil {
		b.Fatal("shared alloc bench DB failed to open")
	}
	return allocDB.db, allocDB.qs
}

// BenchmarkDBKNNAllocs is the allocation surface of the perf trajectory:
// warm-session db.KNNAppend into a caller-reused buffer, one sub-benchmark
// per method. The companion regression tests (TestDBKNNAppendZeroAllocs,
// core's TestWarmSessionKNNZeroAllocs) hard-fail if any of these ever
// report a steady-state allocation again.
func BenchmarkDBKNNAllocs(b *testing.B) {
	db, qs := sharedAllocDB(b)
	ctx := context.Background()
	for _, m := range db.Methods() {
		b.Run("method="+m.String(), func(b *testing.B) {
			opt := api.WithMethod(m)
			var buf []api.Result
			var err error
			for _, q := range qs[:16] { // warm the pooled session's scratch
				if buf, err = db.KNNAppend(ctx, q, 10, buf[:0], opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = db.KNNAppend(ctx, qs[i%len(qs)], 10, buf[:0], opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Public API: batch execution and the method × k × density grid ---

// gridDB lazily opens one shared DB over the largest benchmark network
// (~11.5k vertices) with INE, IER-PHL and G-tree plus one object category
// per benchmarked density; shared by the grid and batch benchmarks.
var gridDB = struct {
	once sync.Once
	db   *api.DB
	qs   []int32
}{}

// gridDensities are the object densities the grid benchmark sweeps; each
// is registered as category "d<density>".
var gridDensities = []float64{0.001, 0.01}

func sharedGridDB(b *testing.B) (*api.DB, []int32) {
	gridDB.once.Do(func() {
		g := gen.Network(gen.NetworkSpec{Name: "dbgrid", Rows: 96, Cols: 120, Seed: 29})
		opts := []api.Option{api.WithMethods(api.INE, api.IERPHL, api.Gtree)}
		for i, d := range gridDensities {
			opts = append(opts, api.WithObjects(fmt.Sprintf("d%g", d), gen.Uniform(g, d, int64(50+i))))
		}
		db, err := api.Open(g, opts...)
		if err != nil {
			panic(err)
		}
		gridDB.db = db
		gridDB.qs = gen.QueryVertices(g, 256, 23)
	})
	if gridDB.db == nil {
		b.Fatal("shared grid DB failed to open")
	}
	return gridDB.db, gridDB.qs
}

// BenchmarkDBKNNGrid sweeps method × k × density on one network — the
// ns/op surface behind the planner's regime table.
func BenchmarkDBKNNGrid(b *testing.B) {
	db, qs := sharedGridDB(b)
	ctx := context.Background()
	for _, m := range db.Methods() {
		for _, k := range []int{1, 10, 50} {
			for _, d := range gridDensities {
				b.Run(fmt.Sprintf("method=%s/k=%d/density=%g", m, k, d), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						q := qs[i%len(qs)]
						if _, err := db.KNN(ctx, q, k, api.WithMethod(m), api.WithCategory(fmt.Sprintf("d%g", d))); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// batchQueryCount is the batch-vs-sequential comparison size: one
// benchmark op answers this many queries either way.
const batchQueryCount = 64

// BenchmarkDBBatch answers 64 queries per op through db.Batch on the
// largest benchmark network: sessions are checked out once per worker and
// the queries fan across the pool. Compare ns/op against
// BenchmarkDBSequential — batch throughput must be at least the
// sequential loop's.
func BenchmarkDBBatch(b *testing.B) {
	db, qs := sharedGridDB(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batch := db.Batch()
		for j := 0; j < batchQueryCount; j++ {
			batch.AddKNN(qs[(i*batchQueryCount+j)%len(qs)], 10, api.WithMethod(api.Gtree), api.WithCategory("d0.001"))
		}
		results, err := batch.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkDBSequential is BenchmarkDBBatch's baseline: the same 64
// queries as a plain one-at-a-time loop on one goroutine.
func BenchmarkDBSequential(b *testing.B) {
	db, qs := sharedGridDB(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batchQueryCount; j++ {
			q := qs[(i*batchQueryCount+j)%len(qs)]
			if _, err := db.KNN(ctx, q, 10, api.WithMethod(api.Gtree), api.WithCategory("d0.001")); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// batchClusteredOnce registers the sparse category BenchmarkDBBatchClustered
// queries on the shared churn network: ~110 objects over ~110k vertices, the
// sparse regime where a single k=10 INE query costs well over the planner's
// sharing crossover.
var batchClusteredOnce sync.Once

// BenchmarkDBBatchClustered is the shared-expansion acceptance benchmark: 64
// k=10 queries packed into one spatial block of the ~110k-vertex network,
// answered per op either by shared multi-source expansions (mode=shared) or
// by the pooled fan-out baseline (mode=fanout). The answers must match
// exactly, and the shared mode reports its speedup over fan-out and
// hard-fails below 1.5x so a regression in the shared frontier can't land
// silently.
func BenchmarkDBBatchClustered(b *testing.B) {
	db, _ := sharedChurnDB(b)
	g := db.Graph()
	batchClusteredOnce.Do(func() {
		if err := db.RegisterObjects("batch-sparse", gen.Uniform(g, 0.001, 47)); err != nil {
			panic(err)
		}
	})
	// Consecutive vertex ids around the network middle: spatially adjacent
	// on the generated grids, so the grouping planner sees same-leaf
	// clusters — the hot-cell shape shared expansion exists for.
	queries := make([]int32, batchQueryCount)
	base := int32(g.NumVertices() / 2)
	for i := range queries {
		queries[i] = base + int32(i)
	}
	ctx := context.Background()
	runOnce := func(b *testing.B, mode api.SharedMode) []api.BatchResult {
		batch := db.Batch().SharedExpansion(mode)
		for _, q := range queries {
			batch.AddKNN(q, 10, api.WithMethod(api.INE), api.WithCategory("batch-sparse"))
		}
		results, err := batch.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		return results
	}
	// Exactness gate before any timing: member for member, the shared
	// expansion must return the fan-out answers.
	fanRes := runOnce(b, api.SharedOff)
	shRes := runOnce(b, api.SharedOn)
	for i := range fanRes {
		if !api.SameResults(fanRes[i].Results, shRes[i].Results) {
			b.Fatalf("query %d: shared %v != fanout %v", queries[i],
				api.FormatResults(shRes[i].Results), api.FormatResults(fanRes[i].Results))
		}
	}
	var fanoutNs, sharedNs float64
	bench := func(mode api.SharedMode, ns *float64) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runOnce(b, mode)
			}
			*ns = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		}
	}
	b.Run("mode=fanout", bench(api.SharedOff, &fanoutNs))
	b.Run("mode=shared", func(b *testing.B) {
		bench(api.SharedOn, &sharedNs)(b)
		if fanoutNs > 0 && sharedNs > 0 {
			speedup := fanoutNs / sharedNs
			b.ReportMetric(speedup, "speedup")
			if speedup < 1.5 {
				b.Fatalf("shared expansion only %.2fx faster than fan-out, want >= 1.5x", speedup)
			}
		}
	})
}

// BenchmarkDBKNNSeqFirstResult measures streaming's reason to exist: time
// to the first neighbor via KNNSeq against the full buffered KNN answer,
// on the expansion method where the gap is widest.
func BenchmarkDBKNNSeqFirstResult(b *testing.B) {
	db, qs := sharedGridDB(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		got := 0
		for _, err := range db.KNNSeq(ctx, q, 50, api.WithMethod(api.INE), api.WithCategory("d0.001")) {
			if err != nil {
				b.Fatal(err)
			}
			got++
			break
		}
		if got != 1 {
			b.Fatal("no first result")
		}
	}
}

// BenchmarkNetworkGeneration tracks the generator itself so dataset setup
// cost is visible in benchmark output.
func BenchmarkNetworkGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := gen.Network(gen.NetworkSpec{Name: "bench", Rows: 48, Cols: 60, Seed: int64(i)})
		if g.NumVertices() == 0 {
			b.Fatal("empty network")
		}
	}
}

// churnDB lazily opens the object-churn benchmark DB: a ~110k-vertex
// network (large enough to hold the 100k-object category) with one method
// per maintainer family — INE (object-set membership), IER-CH (dynamic
// R-tree, over the IER oracle cheapest to build: IER-PHL maintains the same
// tree, and took the open 6 s and 240 MB of RSS more), G-tree (occurrence
// list), ROAD (association directory).
var churnDB = struct {
	once sync.Once
	db   *api.DB
	sets map[int][]int32
}{}

// churnSizes are the object-set scales BenchmarkObjectChurn compares
// incremental updates against full re-registration at.
var churnSizes = []int{1000, 10000, 100000}

func sharedChurnDB(b *testing.B) (*api.DB, map[int][]int32) {
	churnDB.once.Do(func() {
		g := gen.Network(gen.NetworkSpec{Name: "churnbench", Rows: 230, Cols: 230, Seed: 29})
		db, err := api.Open(g, api.WithMethods(api.INE, api.IERCH, api.Gtree, api.ROAD))
		if err != nil {
			panic(err)
		}
		churnDB.db = db
		churnDB.sets = map[int][]int32{}
		n := g.NumVertices()
		for _, size := range churnSizes {
			// Evenly spaced object vertices, skipping vertex 0 (kept free as
			// the churned spare).
			verts := make([]int32, size)
			for i := range verts {
				verts[i] = int32(1 + i*(n-1)/size)
			}
			churnDB.sets[size] = verts
			if err := db.RegisterObjects(fmt.Sprintf("churn-%d", size), verts); err != nil {
				panic(err)
			}
		}
	})
	if churnDB.db == nil {
		b.Fatal("shared churn DB failed to open")
	}
	return churnDB.db, churnDB.sets
}

// monitorBenchOnce registers the sparse category BenchmarkMonitorRoute
// monitors on the shared churn network (~110k vertices, ~55 objects — few
// enough that the (k+1)-gap is wide, but well above k so the safe-region
// bound is doing real work rather than trivially holding forever).
var monitorBenchOnce sync.Once

// BenchmarkMonitorRoute drives db.Monitor along a 512-step edge walk and
// reports, beyond ns/op, the two numbers the continuous-query design is
// about: ns/step and avoided-ratio — the fraction of steps the per-step
// safe-region check answered without re-running a kNN search. The
// benchmark hard-fails if the ratio drops below 60% so a regression in the
// drift accounting can't land silently.
func BenchmarkMonitorRoute(b *testing.B) {
	db, _ := sharedChurnDB(b)
	g := db.Graph()
	monitorBenchOnce.Do(func() {
		if err := db.RegisterObjects("monitor", gen.Uniform(g, 0.0005, 43)); err != nil {
			panic(err)
		}
	})
	// A clustered route: an edge walk around the network's middle — the
	// localized moving-query shape the safe-region check is built for.
	route := make([]int32, 512)
	route[0] = int32(g.NumVertices() / 2)
	for i := 1; i < len(route); i++ {
		targets, _ := g.Neighbors(route[i-1])
		route[i] = targets[i%len(targets)]
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var steps, avoided int
	for i := 0; i < b.N; i++ {
		for u, err := range db.Monitor(ctx, route, 10, api.WithCategory("monitor"), api.WithMethod(api.Gtree)) {
			if err != nil {
				b.Fatal(err)
			}
			steps++
			if u.Refresh == api.MonitorRefreshNone {
				avoided++
			}
		}
	}
	elapsed := b.Elapsed()
	b.StopTimer()
	ratio := float64(avoided) / float64(steps)
	b.ReportMetric(ratio, "avoided-ratio")
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(steps), "ns/step")
	if ratio < 0.6 {
		b.Fatalf("safe-region check avoided only %.0f%% of %d steps, want >= 60%%", 100*ratio, steps)
	}
}

// BenchmarkObjectChurn measures what one object change costs at 1k/10k/100k
// objects: mode=incremental alternates a single-vertex InsertObjects /
// RemoveObjects (the epoch-versioned delta path: the object set's touched
// pages now, each index's maintainer on its first read, which this
// benchmark never makes), mode=reregister pays the pre-epoch cost model,
// a full RegisterObjects rebuild of every derived object index. The
// incremental path must stay >= 10x faster than re-registration from 10k
// objects up; it is ~0.7 µs, 1,275 B and 6 allocs per op at every size
// (one pinned CPU), 400x to 70,000x under re-registration.
func BenchmarkObjectChurn(b *testing.B) {
	db, sets := sharedChurnDB(b)
	const spare int32 = 0 // never part of the registered sets
	for _, size := range churnSizes {
		cat := fmt.Sprintf("churn-%d", size)
		b.Run(fmt.Sprintf("mode=incremental/objects=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if i%2 == 0 {
					err = db.InsertObjects(cat, []int32{spare})
				} else {
					err = db.RemoveObjects(cat, []int32{spare})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("mode=reregister/objects=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := db.RegisterObjects(cat, sets[size]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mutateDensities are the object densities BenchmarkObjectMutate churns,
// each registered on NW as category "d<density>": rnbench's sparse and
// dense categories.
var mutateDensities = []float64{0.001, 0.1}

// mutateDB lazily opens NW with rnbench's fixture methods (INE, IER-PHL,
// G-tree, ROAD), so every mutation derives all four object indexes.
var mutateDB = struct {
	once sync.Once
	db   *api.DB
}{}

// BenchmarkObjectMutate is the in-tree twin of rnbench's
// objects.mutate_{sparse,dense}_us: one op is a 4-vertex InsertObjects of
// vertices outside the category followed by the matching RemoveObjects,
// so the set is the same after every op. ns/mutation is half of ns/op, the
// probes' unit. A mutation derives only the object set (its paged
// membership and count); each method's object index is brought up to
// date by the first query that reads it, so the form=then-read
// sub-benchmarks follow each mutation with one k=1 query per enabled
// method on the mutated category — the mutation plus every derivation it
// defers, against which the old eager path's mutation plus queries
// compares. A mutation alone costs ~1.8 KB and 12 allocs per op at both
// densities, since the object set keeps no vertex list (2.1 KB and 21 KB
// in 20 allocs when it did); then-read ~5.1 KB and 34, and ~17.5 KB and
// 61 (the occurrence list and association directory of the remove epoch
// are the insert epoch's bases again). When every mutation derived every
// index an op cost 6.1 KB and 44 allocs, and 47 KB and 71, for the
// mutation alone.
func BenchmarkObjectMutate(b *testing.B) {
	mutateDB.once.Do(func() {
		spec, _ := gen.LadderSpec("NW")
		g := gen.Network(spec)
		opts := []api.Option{api.WithMethods(api.INE, api.IERPHL, api.Gtree, api.ROAD)}
		for i, d := range mutateDensities {
			opts = append(opts, api.WithObjects(fmt.Sprintf("d%g", d), gen.Uniform(g, d, int64(60+i))))
		}
		db, err := api.Open(g, opts...)
		if err != nil {
			panic(err)
		}
		mutateDB.db = db
	})
	db := mutateDB.db
	if db == nil {
		b.Fatal("shared mutate bench DB failed to open")
	}
	for _, thenRead := range []bool{false, true} {
		for i, d := range mutateDensities {
			name := "density=" + fmt.Sprint(d)
			if thenRead {
				name = "form=then-read/" + name
			}
			b.Run(name, func(b *testing.B) { benchMutate(b, db, d, int64(60+i), thenRead) })
		}
	}
}

// benchMutate runs BenchmarkObjectMutate on the category of density d
// registered from seed, each mutation followed by one k=1 query per method
// when thenRead is set.
func benchMutate(b *testing.B, db *api.DB, d float64, seed int64, thenRead bool) {
	cat := fmt.Sprintf("d%g", d)
	objs := gen.Uniform(db.Graph(), d, seed)
	// The query stands on an object no delta touches, so it answers at once
	// and what a read adds is mostly the derivation it triggers.
	ctx, q := context.Background(), objs[0]
	var buf []api.Result
	read := func() {
		if !thenRead {
			return
		}
		for _, m := range db.Methods() {
			var err error
			if buf, err = db.KNNAppend(ctx, q, 1, buf[:0], api.WithCategory(cat), api.WithMethod(m)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// 128 deltas of four distinct vertices, none in the category.
	present := map[int32]bool{}
	for _, v := range objs {
		present[v] = true
	}
	rng := rand.New(rand.NewSource(67))
	deltas := make([][]int32, 128)
	for j := range deltas {
		for len(deltas[j]) < 4 {
			if v := int32(rng.Intn(db.Graph().NumVertices())); !present[v] {
				present[v] = true
				deltas[j] = append(deltas[j], v)
			}
		}
	}
	read() // the category's every index built before the timed loop
	// The sub-benchmarks share one DB; start each from a collected heap so
	// the garbage an earlier form left does not time into this one.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs := deltas[i%len(deltas)]
		if err := db.InsertObjects(cat, vs); err != nil {
			b.Fatal(err)
		}
		read()
		if err := db.RemoveObjects(cat, vs); err != nil {
			b.Fatal(err)
		}
		read()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/mutation")
}

// --- Snapshot open paths: verified decode vs zero-copy mmap ---

// BenchmarkOpenFromSnapshot is the warm-start acceptance benchmark: one
// self-contained snapshot of the shared bench DB (graph + G-tree + PHL
// indexes), opened per op either through the fully verified decode of
// bytes in memory (mode=decode, rnknn.OpenFromSnapshot) or through the
// mmap zero-copy path (mode=mmap, rnknn.OpenSnapshotFile). Answers must
// match the building DB before any timing. Both modes report open-ms and
// the snapshot size; the mmap mode additionally reports its speedup over
// decode (~24x expected, 5-22x on a loaded 2-vCPU host at one iteration).
// The speedup is a reading, not a gate: the "warm start costs page faults,
// not a decode of every byte" claim is gated in bytes by
// TestMappedOpenCost (pkg/rnknn).
func BenchmarkOpenFromSnapshot(b *testing.B) {
	db, qs := sharedBenchDB(b)
	g := db.Graph()
	methods := []api.Method{api.INE, api.IERPHL, api.Gtree}
	path := filepath.Join(b.TempDir(), "bench.rnks")
	if err := db.SaveIndexesFile(path); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	snapMB := float64(len(data)) / (1 << 20)

	// Exactness gate before any timing: both open paths must load (not
	// rebuild) every index and answer exactly like the DB that built them.
	withObjs := api.WithObjects(api.DefaultCategory, gen.Uniform(g, 0.001, 21))
	checkOpen := func(open func() (*api.DB, error)) {
		b.Helper()
		d, err := open()
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		for name, ix := range d.Stats().Indexes {
			if !ix.Loaded {
				b.Fatalf("index %s rebuilt instead of loaded", name)
			}
		}
		ctx := context.Background()
		for _, m := range methods {
			for _, q := range qs[:8] {
				want, err := db.KNN(ctx, q, 10, api.WithMethod(m))
				if err != nil {
					b.Fatal(err)
				}
				got, err := d.KNN(ctx, q, 10, api.WithMethod(m))
				if err != nil {
					b.Fatal(err)
				}
				if !api.SameResults(got, want) {
					b.Fatalf("%v q=%d: reopened DB answers differently", m, q)
				}
			}
		}
	}
	checkOpen(func() (*api.DB, error) {
		return api.OpenFromSnapshot(g, bytes.NewReader(data), api.WithMethods(methods...), withObjs)
	})
	checkOpen(func() (*api.DB, error) {
		return api.OpenSnapshotFile(path, api.WithMethods(methods...), withObjs)
	})

	var decodeNs, mmapNs float64
	b.Run("mode=decode", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := api.OpenFromSnapshot(g, bytes.NewReader(data), api.WithMethods(methods...))
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
		}
		decodeNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(decodeNs/1e6, "open-ms")
		b.ReportMetric(snapMB, "snap-MB")
	})
	b.Run("mode=mmap", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := api.OpenSnapshotFile(path, api.WithMethods(methods...))
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
		}
		mmapNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(mmapNs/1e6, "open-ms")
		b.ReportMetric(snapMB, "snap-MB")
		if decodeNs > 0 && mmapNs > 0 {
			b.ReportMetric(decodeNs/mmapNs, "speedup")
		}
	})
}
