package rnknn

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/knn"
)

// streamGraphs are the three networks the streaming contract is checked
// on.
var streamGraphs = []gen.NetworkSpec{
	{Name: "s-small", Rows: 8, Cols: 10, Seed: 3},
	{Name: "s-mid", Rows: 16, Cols: 20, Seed: 7},
	{Name: "s-wide", Rows: 12, Cols: 40, Seed: 11},
}

func streamDB(t *testing.T, spec gen.NetworkSpec, density float64) *DB {
	t.Helper()
	g := gen.Network(spec)
	db, err := Open(g,
		WithMethods(Methods()...),
		WithObjects(DefaultCategory, gen.Uniform(g, density, 5)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func collectSeq(t *testing.T, db *DB, q int32, k int, opts ...QueryOption) []Result {
	t.Helper()
	var out []Result
	for r, err := range db.KNNSeq(context.Background(), q, k, opts...) {
		if err != nil {
			t.Fatalf("KNNSeq yielded error: %v", err)
		}
		out = append(out, r)
	}
	return out
}

// TestSessionPoolCountsOnlyCheckouts: a session that cannot be manufactured
// is not a checkout, so a failed get leaves gets equal to puts.
func TestSessionPoolCountsOnlyCheckouts(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "pool", Rows: 4, Cols: 4, Seed: 1})
	p := newSessionPool(core.New(g), core.MethodKind(-1))
	if ps, err := p.get(nil); err == nil || ps != nil {
		t.Fatalf("invalid method kind: got session %v, err %v; want an error", ps, err)
	}
	if gets, puts := p.gets.Load(), p.puts.Load(); gets != 0 || puts != 0 {
		t.Fatalf("after a failed get: gets=%d puts=%d, want 0/0", gets, puts)
	}
}

// TestKNNSeqEarlyBreakConcurrent hammers early breaks from many
// goroutines — under -race this proves the release path is data-race free.
func TestKNNSeqEarlyBreakConcurrent(t *testing.T) {
	db := streamDB(t, streamGraphs[1], 0.05)
	n := db.Graph().NumVertices()
	var wg sync.WaitGroup
	for w := 0; w < 2*runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				taken := 0
				for _, err := range db.KNNSeq(context.Background(), int32((w*53+i)%n), 8, WithMethod(INE)) {
					if err != nil {
						t.Error(err)
						return
					}
					if taken++; taken == 2 {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestKNNSeqContextCancelMidStream cancels after the first neighbor: the
// expansion must stop and the stream must end with ctx's error.
func TestKNNSeqContextCancelMidStream(t *testing.T) {
	db := streamDB(t, streamGraphs[1], 0.02)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []Result
	var lastErr error
	// k above the object count forces a graph-wide scan if not stopped.
	for r, err := range db.KNNSeq(ctx, 0, db.Graph().NumVertices(), WithMethod(INE)) {
		if err != nil {
			lastErr = err
			break
		}
		got = append(got, r)
		cancel()
	}
	if !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("stream ended with %v, want context.Canceled", lastErr)
	}
	if len(got) == 0 {
		t.Fatal("expected at least the pre-cancellation neighbor")
	}
}

// TestKNNSeqPreCancelled and invalid inputs: the first yielded pair
// carries the typed error and the stream ends.
func TestKNNSeqErrorYield(t *testing.T) {
	db := streamDB(t, streamGraphs[0], 0.05)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		seq  func(func(Result, error) bool)
		want error
	}{
		{"bad k", db.KNNSeq(context.Background(), 0, 0), ErrBadK},
		{"bad vertex", db.KNNSeq(context.Background(), -1, 3), ErrBadVertex},
		{"unknown method", db.KNNSeq(context.Background(), 0, 3, WithMethod(Method(42))), ErrUnknownMethod},
		{"unknown category", db.KNNSeq(context.Background(), 0, 3, WithCategory("nope")), ErrUnknownCategory},
		{"pre-cancelled", db.KNNSeq(cancelled, 0, 3), context.Canceled},
	}
	for _, c := range cases {
		pairs := 0
		var lastErr error
		for r, err := range c.seq {
			pairs++
			lastErr = err
			if err == nil {
				t.Errorf("%s: yielded a result %v, want only the error", c.name, r)
			}
		}
		if pairs != 1 || !errors.Is(lastErr, c.want) {
			t.Errorf("%s: %d pairs, err %v; want 1 pair of %v", c.name, pairs, lastErr, c.want)
		}
	}
}

// TestKNNSeqRecordsStatsOnCompletion: only fully consumed streams land in
// the per-method counters.
func TestKNNSeqRecordsStatsOnCompletion(t *testing.T) {
	db := streamDB(t, streamGraphs[0], 0.05)
	for range db.KNNSeq(context.Background(), 0, 3, WithMethod(ROAD)) {
		break // abandoned: must not be counted
	}
	collectSeq(t, db, 0, 3, WithMethod(ROAD))
	if got := db.Stats().Methods["ROAD"].KNNQueries; got != 1 {
		t.Fatalf("ROAD KNNQueries = %d, want 1 (completed stream only)", got)
	}
}

// TestShardedKNNSeqReleasesSessions: the lazy merge holds one pooled session
// per opened cell; breaking out of the stream or cancelling it mid-merge must
// return every one of them.
func TestShardedKNNSeqReleasesSessions(t *testing.T) {
	e := newConfEnv(t, confSharded)
	for q := int32(0); q < int32(e.db.Graph().NumVertices()); q += 5 {
		for range e.db.KNNSeq(context.Background(), q, 8, WithCategory(confCat)) {
			break
		}
		ctx, cancel := context.WithCancel(context.Background())
		var last error
		for _, last = range e.db.KNNSeq(ctx, q, 8, WithCategory(confCat)) {
			cancel()
		}
		cancel()
		if !errors.Is(last, context.Canceled) {
			t.Fatalf("q=%d: cancelled stream ended with %v", q, last)
		}
	}
	if !e.poolsBalanced() {
		t.Fatal("a broken or cancelled merge kept a per-cell session")
	}
}

// TestShardedKNNSeqCellErrorAborts: a cell whose stream fails to open ends
// the merge with that error as the stream's last pair. The one such failure
// is a session that cannot be manufactured, forced here by handing the (still
// empty) pool a method kind the engine does not know.
func TestShardedKNNSeqCellErrorAborts(t *testing.T) {
	e := newConfEnv(t, confSharded)
	e.db.pools[INE].kind = core.NumKinds
	var last error
	n := 0
	for _, err := range e.db.KNNSeq(context.Background(), 0, 8, WithCategory(confCat), WithMethod(INE)) {
		last = err
		n++
	}
	if n != 1 || last == nil || errors.Is(last, context.Canceled) {
		t.Fatalf("stream yielded %d pairs ending in %v, want the one session error", n, last)
	}
}

// TestCellStreamKeyOrder pins the merge frontier's tie rule: an unopened
// cell's bound sorts ahead of any item at the same distance, so a cell that
// may hold an object at exactly its bound is opened before that distance is
// emitted; once open, the cell sorts by its head.
func TestCellStreamKeyOrder(t *testing.T) {
	shut := &cellStream{bound: 50}
	for _, item := range []Result{{Vertex: 0, Dist: 50}, {Vertex: 7, Dist: 50}, {Vertex: 0, Dist: 51}} {
		if knn.ByDistVertex(shut.key(), item) >= 0 {
			t.Errorf("unopened bound 50 does not sort ahead of item %+v", item)
		}
	}
	if knn.ByDistVertex(shut.key(), Result{Vertex: 9, Dist: 49}) <= 0 {
		t.Error("unopened bound 50 sorts ahead of a nearer item")
	}
	open := &cellStream{bound: 50, head: Result{Vertex: 3, Dist: 60}, next: func() (Result, bool) { return Result{}, false }}
	if open.key() != open.head {
		t.Errorf("open stream keyed %+v, want its head %+v", open.key(), open.head)
	}
}
