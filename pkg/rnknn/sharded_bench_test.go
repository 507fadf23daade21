package rnknn_test

import (
	"context"
	"os"
	"slices"
	"sync"
	"testing"

	"rnknn/internal/gen"
	"rnknn/pkg/rnknn"
)

// shardedBench is BenchmarkShardedKNN's fixture, built once per process: NW
// with the serving methods, opened as an ordinary DB and as a 4-cell shard
// set over the same snapshot, the same two object densities on both.
var shardedBench struct {
	once        sync.Once
	mono, cells *rnknn.DB
	qs          []int32
	radius      rnknn.Dist
	err         error
}

func shardedBenchFixture(b *testing.B) (mono, cells *rnknn.DB, qs []int32, radius rnknn.Dist) {
	f := &shardedBench
	f.once.Do(func() {
		spec, _ := gen.LadderSpec("NW")
		g := gen.Network(spec)
		if f.mono, f.err = rnknn.Open(g, rnknn.WithMethods(rnknn.INE, rnknn.IERPHL, rnknn.Gtree, rnknn.ROAD)); f.err != nil {
			return
		}
		// Not b.TempDir, whose removal would race the fixture's later users:
		// the files go as soon as the set is open (the mapping, or the
		// decoded heap copy where there is no mmap, outlives them).
		dir, err := os.MkdirTemp("", "shardedbench")
		if f.err = err; err != nil {
			return
		}
		defer os.RemoveAll(dir)
		if f.err = f.mono.SaveShardSet(dir, 4); f.err != nil {
			return
		}
		if f.cells, f.err = rnknn.OpenSharded(dir); f.err != nil {
			return
		}
		for _, db := range []*rnknn.DB{f.mono, f.cells} {
			for name, density := range map[string]float64{"d0.01": 0.01, "d0.001": 0.001} {
				if f.err = db.RegisterObjects(name, gen.Uniform(g, density, 7)); f.err != nil {
					return
				}
			}
		}
		f.qs = gen.QueryVertices(g, 512, 11)
		// The mix row's range radius, as rnbench draws it: the median
		// distance to the 10th neighbour at d0.01.
		tenth := make([]rnknn.Dist, 0, len(f.qs))
		for _, q := range f.qs {
			res, err := f.mono.KNN(context.Background(), q, 10, rnknn.WithCategory("d0.01"))
			if f.err = err; err != nil {
				return
			}
			tenth = append(tenth, res[len(res)-1].Dist)
		}
		slices.Sort(tenth)
		f.radius = tenth[len(tenth)/2]
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
	return f.mono, f.cells, f.qs, f.radius
}

// BenchmarkShardedKNN is what partitioning a category costs one caller:
// DB.KNN (k=10) on an ordinary DB against the same call on a 4-cell shard
// set of the same network and objects, for the query MethodAuto serves in
// microseconds (d0.01) and for a millisecond expansion (explicit INE on
// d0.001). The KNNSeq rows are the streaming form of the same query — time
// to the first neighbor and the full drain — which on the shard set is the
// lazy merge of the per-cell streams (mergeCells). cells/op is how many cells
// the bounds let a query open. The Mix-d0.01 rows are http-sharded's op mix on
// the same two DBs: d0.01, MethodAuto kNN with k cycling over {1, 5, 10, 25,
// 50}, and one op in ten a method-less Range at the median 10th-neighbour
// distance. Compare across -cpu 1,2: the fan and the merge run on the
// caller's goroutine.
func BenchmarkShardedKNN(b *testing.B) {
	mono, cells, qs, radius := shardedBenchFixture(b)
	ctx := context.Background()
	opened := func(db *rnknn.DB) (n uint64) {
		for _, sh := range db.Stats().Shards {
			n += sh.Opened
		}
		return n
	}
	const k = 10
	// stream consumes take neighbors of one KNNSeq and abandons the rest.
	stream := func(take int) func(*rnknn.DB, int32, []rnknn.QueryOption) error {
		return func(db *rnknn.DB, q int32, opts []rnknn.QueryOption) error {
			n := 0
			for _, err := range db.KNNSeq(ctx, q, k, opts...) {
				if err != nil {
					return err
				}
				if n++; n == take {
					break
				}
			}
			return nil
		}
	}
	ops := []struct {
		suffix string
		run    func(*rnknn.DB, int32, []rnknn.QueryOption) error
	}{
		{"", func(db *rnknn.DB, q int32, opts []rnknn.QueryOption) error {
			_, err := db.KNN(ctx, q, k, opts...)
			return err
		}},
		{"/KNNSeq-first", stream(1)},
		{"/KNNSeq-drain", stream(k)},
	}
	sides := []struct {
		name string
		db   *rnknn.DB
	}{{"mono", mono}, {"cells=4", cells}}
	for _, w := range []struct {
		name, category string
		method         rnknn.Method
	}{
		{"Auto-d0.01", "d0.01", rnknn.MethodAuto},
		{"INE-d0.001", "d0.001", rnknn.INE},
	} {
		for _, side := range sides {
			for _, op := range ops {
				b.Run(w.name+"/"+side.name+op.suffix, func(b *testing.B) {
					opts := []rnknn.QueryOption{rnknn.WithMethod(w.method), rnknn.WithCategory(w.category)}
					before := opened(side.db)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := op.run(side.db, qs[i%len(qs)], opts); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(opened(side.db)-before)/float64(b.N), "cells/op")
				})
			}
		}
	}
	mixKs := []int{1, 5, 10, 25, 50}
	for _, side := range sides {
		b.Run("Mix-d0.01/"+side.name, func(b *testing.B) {
			cat, auto := rnknn.WithCategory("d0.01"), rnknn.WithMethod(rnknn.MethodAuto)
			before := opened(side.db)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				var err error
				if i%10 == 9 {
					_, err = side.db.Range(ctx, q, radius, cat)
				} else {
					_, err = side.db.KNN(ctx, q, mixKs[i/10%len(mixKs)], cat, auto)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(opened(side.db)-before)/float64(b.N), "cells/op")
		})
	}
}
