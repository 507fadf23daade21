package rnknn

import (
	"context"
	"errors"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/knn"
)

// testDB opens a small network with every method and one default category.
func testDB(t *testing.T) *DB {
	t.Helper()
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 16, Cols: 20, Seed: 7})
	db, err := Open(g,
		WithMethods(Methods()...),
		WithObjects(DefaultCategory, gen.Uniform(g, 0.02, 3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil); !errors.Is(err, ErrBadGraph) {
		t.Fatalf("nil graph: got %v, want ErrBadGraph", err)
	}
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 8, Cols: 8, Seed: 1})
	if _, err := Open(g, WithMethods()); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("no methods: got %v, want ErrUnknownMethod", err)
	}
	if _, err := Open(g, WithMethods(Method(99))); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("bad method: got %v, want ErrUnknownMethod", err)
	}
	if _, err := Open(g, WithObjects("x", []int32{-1})); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("bad object vertex: got %v, want ErrBadVertex", err)
	}
}

func TestMethodParsing(t *testing.T) {
	for _, m := range Methods() {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("nope"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown name: got %v, want ErrUnknownMethod", err)
	}
	// The methods only the figure harness builds are not served.
	for _, name := range []string{"IER-Dijk", "IER-Gt", "DisBrw"} {
		if _, err := ParseMethod(name); !errors.Is(err, ErrUnknownMethod) {
			t.Errorf("ParseMethod(%q): got %v, want ErrUnknownMethod", name, err)
		}
	}
}

func TestEveryMethodMatchesBruteForce(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	queries := gen.QueryVertices(db.Graph(), 12, 5)
	for _, m := range db.Methods() {
		for _, q := range queries {
			got, err := db.KNN(ctx, q, 8, WithMethod(m))
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			want, err := db.BruteForceKNN(q, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !SameResults(got, want) {
				t.Fatalf("%s q=%d: got %s want %s", m, q, FormatResults(got), FormatResults(want))
			}
		}
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	for _, q := range gen.QueryVertices(db.Graph(), 8, 6) {
		for _, radius := range []Dist{0, 2500, 20000} {
			got, err := db.Range(ctx, q, radius)
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.BruteForceRange(q, radius)
			if err != nil {
				t.Fatal(err)
			}
			if !SameResults(got, want) {
				t.Fatalf("q=%d r=%d: got %s want %s", q, radius, FormatResults(got), FormatResults(want))
			}
		}
	}
}

func TestTypedQueryErrors(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	cases := []struct {
		name string
		err  error
		want error
	}{
		{"bad k", errOf(db.KNN(ctx, 0, 0)), ErrBadK},
		{"bad vertex", errOf(db.KNN(ctx, -1, 3)), ErrBadVertex},
		{"vertex past end", errOf(db.KNN(ctx, int32(db.Graph().NumVertices()), 3)), ErrBadVertex},
		{"unknown method", errOf(db.KNN(ctx, 0, 3, WithMethod(Method(42)))), ErrUnknownMethod},
		{"not enabled", errOf(batchDB(t).KNN(ctx, 0, 3, WithMethod(ROAD))), ErrMethodNotEnabled},
		{"unknown category", errOf(db.KNN(ctx, 0, 3, WithCategory("nope"))), ErrUnknownCategory},
		{"bad radius", errOf(db.Range(ctx, 0, -1)), ErrBadRadius},
		{"range method", errOf(db.Range(ctx, 0, 10, WithMethod(Gtree))), ErrRangeMethod},
		{"empty category name", db.RegisterObjects("", []int32{0}), ErrBadCategory},
		{"register bad vertex", db.RegisterObjects("x", []int32{int32(db.Graph().NumVertices())}), ErrBadVertex},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, c.err, c.want)
		}
	}
}

func errOf(_ []Result, err error) error { return err }

func TestContextCancellation(t *testing.T) {
	db := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.KNN(ctx, 0, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled KNN: got %v", err)
	}
	if _, err := db.Range(ctx, 0, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Range: got %v", err)
	}

	// A k far above the object count forces INE to scan the whole graph;
	// cancelling mid-scan must surface the context error, not a partial
	// answer. The interrupt is polled between expansion steps, so cancel
	// from the check itself via a context that expires immediately.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := db.KNN(ctx2, 0, db.Graph().NumVertices())
		done <- err
	}()
	cancel2()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan cancel: got %v", err)
	}
}

func TestCategorySwapVisibility(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	g := db.Graph()
	setA := gen.Uniform(g, 0.05, 11)
	setB := gen.Uniform(g, 0.05, 22)
	if err := db.RegisterObjects("poi", setA); err != nil {
		t.Fatal(err)
	}
	objsA := knn.NewObjectSet(g, setA)
	objsB := knn.NewObjectSet(g, setB)
	q := int32(g.NumVertices() / 2)
	got, err := db.KNN(ctx, q, 4, WithCategory("poi"))
	if err != nil {
		t.Fatal(err)
	}
	if want := knn.BruteForce(g, objsA, q, 4); !SameResults(got, want) {
		t.Fatalf("before swap: got %s want %s", FormatResults(got), FormatResults(want))
	}
	if err := db.RegisterObjects("poi", setB); err != nil {
		t.Fatal(err)
	}
	got, err = db.KNN(ctx, q, 4, WithCategory("poi"))
	if err != nil {
		t.Fatal(err)
	}
	if want := knn.BruteForce(g, objsB, q, 4); !SameResults(got, want) {
		t.Fatalf("after swap: got %s want %s", FormatResults(got), FormatResults(want))
	}
	if n, err := db.NumObjects("poi"); err != nil || n != objsB.Len() {
		t.Fatalf("NumObjects = %d, %v; want %d", n, err, objsB.Len())
	}
}

func TestStats(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := db.KNN(ctx, int32(i), 3, WithMethod(Gtree)); err != nil {
			t.Fatal(err)
		}
	}
	// A range lands under the method that answered it: the planner's pick at
	// this density, then the one named.
	for _, opts := range [][]QueryOption{nil, {WithMethod(INE)}} {
		if _, err := db.Range(ctx, 0, 5000, opts...); err != nil {
			t.Fatal(err)
		}
	}
	s := db.Stats()
	if s.Methods["Gtree"].KNNQueries != 5 {
		t.Fatalf("Gtree KNNQueries = %d, want 5", s.Methods["Gtree"].KNNQueries)
	}
	if s.Methods["Gtree"].TotalLatency <= 0 || s.Methods["Gtree"].MaxLatency <= 0 {
		t.Fatalf("Gtree latency aggregates not recorded: %+v", s.Methods["Gtree"])
	}
	if s.Methods["IER-PHL"].RangeQueries != 1 || s.Methods["INE"].RangeQueries != 1 {
		t.Fatalf("RangeQueries: IER-PHL %d, INE %d, want 1 and 1", s.Methods["IER-PHL"].RangeQueries, s.Methods["INE"].RangeQueries)
	}
	for _, idx := range []string{"Gtree", "ROAD", "CH", "PHL", "TNR"} {
		info, ok := s.Indexes[idx]
		if !ok || info.SizeBytes <= 0 {
			t.Fatalf("index %s missing from stats: %+v", idx, s.Indexes)
		}
	}
	if n := s.Categories[DefaultCategory]; n <= 0 {
		t.Fatalf("default category size = %d", n)
	}
}
