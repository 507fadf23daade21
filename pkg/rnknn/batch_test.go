package rnknn

import (
	"context"
	"errors"
	"testing"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/knn"
)

func batchDB(t *testing.T) *DB {
	t.Helper()
	g := gen.Network(gen.NetworkSpec{Name: "batch", Rows: 16, Cols: 20, Seed: 9})
	db, err := Open(g,
		WithMethods(INE, IERPHL, Gtree),
		WithObjects(DefaultCategory, gen.Uniform(g, 0.03, 5)),
		WithObjects("sparse", gen.Uniform(g, 0.005, 6)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestBatchMatchesIndividualQueries: a mixed batch across methods,
// categories, kNN and range must return exactly what the one-at-a-time
// API returns, in Add* order, for every worker count.
func TestBatchMatchesIndividualQueries(t *testing.T) {
	db := batchDB(t)
	ctx := context.Background()
	queries := gen.QueryVertices(db.Graph(), 16, 31)
	for _, workers := range []int{1, 3, 8} {
		b := db.Batch().Workers(workers)
		type expect func() ([]Result, error)
		var wants []expect
		for i, q := range queries {
			switch i % 4 {
			case 0:
				b.AddKNN(q, 5)
				wants = append(wants, func() ([]Result, error) { return db.KNN(ctx, q, 5) })
			case 1:
				b.AddKNN(q, 3, WithMethod(Gtree), WithCategory("sparse"))
				wants = append(wants, func() ([]Result, error) {
					return db.KNN(ctx, q, 3, WithMethod(Gtree), WithCategory("sparse"))
				})
			case 2:
				b.AddKNN(q, 8, WithMethod(MethodAuto))
				wants = append(wants, func() ([]Result, error) { return db.BruteForceKNN(q, 8) })
			case 3:
				b.AddRange(q, 9000)
				wants = append(wants, func() ([]Result, error) { return db.Range(ctx, q, 9000) })
			}
		}
		got, err := b.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wants) {
			t.Fatalf("workers=%d: %d results for %d queries", workers, len(got), len(wants))
		}
		for i, r := range got {
			if r.Err != nil {
				t.Fatalf("workers=%d op %d: %v", workers, i, r.Err)
			}
			want, err := wants[i]()
			if err != nil {
				t.Fatal(err)
			}
			if !SameResults(r.Results, want) {
				t.Fatalf("workers=%d op %d (q=%d): batch %s != individual %s",
					workers, i, r.Query, FormatResults(r.Results), FormatResults(want))
			}
		}
	}
}

// TestBatchPerQueryErrors: invalid queries carry their own typed error and
// leave the rest of the batch untouched.
func TestBatchPerQueryErrors(t *testing.T) {
	db := batchDB(t)
	got, err := db.Batch().
		AddKNN(0, 0).                         // bad k
		AddKNN(-1, 3).                        // bad vertex
		AddKNN(0, 3, WithMethod(Method(42))). // unknown method
		AddKNN(0, 3, WithMethod(ROAD)).       // known but not enabled
		AddKNN(0, 3, WithCategory("nope")).   // unknown category
		AddRange(0, -1).                      // bad radius
		AddRange(0, 100, WithMethod(ROAD)).   // no range form, not enabled either
		AddKNN(5, 4).                         // and one valid query
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantErrs := []error{ErrBadK, ErrBadVertex, ErrUnknownMethod, ErrMethodNotEnabled,
		ErrUnknownCategory, ErrBadRadius, ErrRangeMethod, nil}
	for i, want := range wantErrs {
		if want == nil {
			if got[i].Err != nil || len(got[i].Results) != 4 {
				t.Errorf("op %d: err=%v results=%d, want 4 clean results", i, got[i].Err, len(got[i].Results))
			}
			continue
		}
		if !errors.Is(got[i].Err, want) {
			t.Errorf("op %d: err = %v, want %v", i, got[i].Err, want)
		}
	}
}

// TestBatchCancellation: a pre-cancelled context fails every query with
// the context error, and Run reports it.
func TestBatchCancellation(t *testing.T) {
	db := batchDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := db.Batch()
	for i := 0; i < 10; i++ {
		b.AddKNN(int32(i), 3)
	}
	got, err := b.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	for i, r := range got {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("op %d: err = %v, want context.Canceled", i, r.Err)
		}
		if r.Results != nil {
			t.Fatalf("op %d: partial results survived cancellation", i)
		}
	}
}

// TestBatchEmptyAndRerun: an empty batch is a no-op; Run is repeatable.
func TestBatchEmptyAndRerun(t *testing.T) {
	db := batchDB(t)
	ctx := context.Background()
	empty, err := db.Batch().Run(ctx)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(empty))
	}
	b := db.Batch().AddKNN(7, 3)
	first, err := b.Run(ctx)
	if err != nil || first[0].Err != nil {
		t.Fatal(err, first[0].Err)
	}
	second, err := b.Run(ctx)
	if err != nil || second[0].Err != nil {
		t.Fatal(err, second[0].Err)
	}
	if !SameResults(first[0].Results, second[0].Results) {
		t.Fatal("re-run returned different results")
	}
}

// TestBatchReportsMethodAndLatency: successful ops carry the concrete
// answering method (Auto resolved) and a positive latency.
func TestBatchReportsMethodAndLatency(t *testing.T) {
	db := batchDB(t)
	got, err := db.Batch().
		AddKNN(3, 4, WithMethod(Gtree)).
		AddKNN(3, 4, WithMethod(MethodAuto)).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Method != Gtree || got[0].Latency <= 0 {
		t.Fatalf("fixed op: method=%v latency=%v", got[0].Method, got[0].Latency)
	}
	if got[1].Method == MethodAuto || !got[1].Method.valid() {
		t.Fatalf("auto op resolved to %v, want a concrete enabled method", got[1].Method)
	}
	if got[0].Query != 3 {
		t.Fatalf("Query echo = %d", got[0].Query)
	}
}

// TestBatchSessionAmortization: a single-worker batch of N queries on one
// method checks out exactly one session for the whole batch — the
// amortization Batch exists for.
func TestBatchSessionAmortization(t *testing.T) {
	db := batchDB(t)
	base := db.pools[Gtree].gets.Load()
	b := db.Batch().Workers(1)
	for i := 0; i < 32; i++ {
		b.AddKNN(int32(i), 3, WithMethod(Gtree))
	}
	if _, err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if gets := db.pools[Gtree].gets.Load() - base; gets != 1 {
		t.Fatalf("32 single-worker batch queries checked out %d sessions, want 1", gets)
	}
	if db.pools[Gtree].gets.Load() != db.pools[Gtree].puts.Load() {
		t.Fatal("batch leaked a session")
	}
}

// TestBatchStats: batch queries land in the same per-method counters as
// individual ones — a range under the method that answered it, which the
// member's result names.
func TestBatchStats(t *testing.T) {
	db := batchDB(t)
	out, err := db.Batch().AddKNN(1, 2, WithMethod(IERPHL)).AddRange(1, 500).AddRange(1, 500, WithMethod(INE)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Method != IERPHL || out[2].Method != INE {
		t.Fatalf("range members report %v (planned at density 0.03) and %v (named), want IER-PHL and INE", out[1].Method, out[2].Method)
	}
	s := db.Stats()
	if ms := s.Methods["IER-PHL"]; ms.KNNQueries != 1 || ms.RangeQueries != 1 {
		t.Fatalf("IER-PHL: %+v, want one kNN and one range query", ms)
	}
	if s.Methods["INE"].RangeQueries != 1 {
		t.Fatalf("INE RangeQueries = %d", s.Methods["INE"].RangeQueries)
	}
}

// panicSession is a session whose kNN search panics: the bug Batch.Run has
// to contain, since it runs searches on goroutines of its own.
type panicSession struct{ core.Session }

func (panicSession) KNNAppend(int32, int, []Result) []Result { panic("search panicked") }

// TestBatchContainsWorkerPanic: a member whose search panics inside
// Batch.Run gets ErrInternal while the other members answer and the
// process survives; the worker drops the panicking session instead of
// putting it back, and the DB answers the next query.
func TestBatchContainsWorkerPanic(t *testing.T) {
	db := batchDB(t)
	ine := db.pools[INE]
	// The pool is empty until a query returns a session, so every INE
	// checkout below manufactures a panicking one.
	ine.pool.New = func() any {
		s, err := db.eng.NewSession(core.INE, db.eng.NewBinding(knn.NewObjectSet(db.g, nil), nil))
		if err != nil {
			t.Error(err)
		}
		return newPooledSession(panicSession{s})
	}
	got, err := db.Batch().Workers(1).SharedExpansion(SharedOff).
		AddKNN(5, 4, WithMethod(INE)).
		AddKNN(5, 4, WithMethod(Gtree)).
		AddKNN(6, 4, WithMethod(INE)).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if !errors.Is(got[i].Err, ErrInternal) || got[i].Results != nil {
			t.Errorf("op %d: err=%v results=%d, want ErrInternal and no results", i, got[i].Err, len(got[i].Results))
		}
	}
	if got[1].Err != nil || len(got[1].Results) != 4 {
		t.Errorf("op 1: err=%v results=%d, want 4 clean results", got[1].Err, len(got[1].Results))
	}
	if gets, puts := ine.gets.Load(), ine.puts.Load(); gets != 2 || puts != 0 {
		t.Errorf("INE pool: %d checkouts, %d returns; want 2 and 0 (panicked sessions dropped)", gets, puts)
	}
	ine.pool.New = nil
	if res, err := db.KNN(context.Background(), 5, 4, WithMethod(INE)); err != nil || len(res) != 4 {
		t.Fatalf("KNN after the panics: %d results, %v", len(res), err)
	}
}
