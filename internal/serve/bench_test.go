package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rnknn/internal/gen"
	"rnknn/pkg/rnknn"
)

// benchCategory is the serve benchmarks' category: the paper's default
// density, 0.001, on NW.
const benchCategory = "d0.001"

// serveBenchDB lazily opens NW with INE and IER-PHL (the methods the planner
// picks between at this density) and the benchmark category.
var serveBenchDB = struct {
	once sync.Once
	db   *rnknn.DB
	qs   []int32
}{}

func openServeBenchDB(b *testing.B) (*rnknn.DB, []int32) {
	serveBenchDB.once.Do(func() {
		spec, _ := gen.LadderSpec("NW")
		g := gen.Network(spec)
		db, err := rnknn.Open(g,
			rnknn.WithMethods(rnknn.INE, rnknn.IERPHL),
			rnknn.WithObjects(benchCategory, gen.Uniform(g, 0.001, 1)),
		)
		if err != nil {
			panic(err)
		}
		serveBenchDB.db = db
		serveBenchDB.qs = gen.QueryVertices(g, 64*32, 2)
	})
	if serveBenchDB.db == nil {
		b.Fatal("shared serve bench DB failed to open")
	}
	return serveBenchDB.db, serveBenchDB.qs
}

// BenchmarkServeKNNHit is the in-tree twin of rnbench's serve.hit_us: one
// /knn request at k=10 answered from the result cache, through the handler
// alone (the probe adds its in-process client's request building and
// response decoding). allocs/op is TestKNNHitAllocs's figure.
func BenchmarkServeKNNHit(b *testing.B) {
	db, qs := openServeBenchDB(b)
	h := New(db, Config{}).Handler()
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/knn?q=%d&k=10&category=%s", qs[0], benchCategory), nil)
	w := &reusableWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // the miss that fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
}

// reusedBody is a request body that can be rewound onto another batch.
type reusedBody struct{ *bytes.Reader }

func (reusedBody) Close() error { return nil }

// BenchmarkServeBatch is the in-tree twin of rnbench's serve.batch_self_us:
// one /batch of 32 random k=10 members naming no method, on a server
// without a cache, so every member runs. ns/op is the whole request;
// self-ns/op subtracts the same batches run straight through db.Batch, which
// leaves what the serve layer adds: decoding, cache keys and encoding.
func BenchmarkServeBatch(b *testing.B) {
	const size, batches = 32, 64
	db, qs := openServeBenchDB(b)
	h := New(db, Config{CacheEntries: -1}).Handler()
	bodies := make([][]byte, batches)
	for i := range bodies {
		req := BatchRequest{Queries: make([]BatchQuery, size)}
		for j := range req.Queries {
			req.Queries[j] = BatchQuery{Query: qs[i*size+j], K: 10, Category: benchCategory}
		}
		bodies[i], _ = json.Marshal(req)
	}
	body := reusedBody{bytes.NewReader(nil)}
	req := httptest.NewRequest(http.MethodPost, "/batch", nil)
	req.Body = body
	w := &reusableWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(bodies[i%batches])
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
	viaServe := b.Elapsed()
	ctx, auto, inCat := context.Background(), rnknn.WithMethod(rnknn.MethodAuto), rnknn.WithCategory(benchCategory)
	start := time.Now()
	for i := 0; i < b.N; i++ {
		batch := db.Batch()
		for _, v := range qs[i%batches*size:][:size] {
			batch.AddKNN(v, 10, auto, inCat) // a member naming no method is Auto on /batch
		}
		if _, err := batch.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(viaServe-time.Since(start))/float64(b.N), "self-ns/op")
}
