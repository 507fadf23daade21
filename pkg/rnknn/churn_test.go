package rnknn

import (
	"context"
	"errors"
	"iter"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rnknn/internal/gen"
)

// churnGraphs are the three networks the churn-equivalence property is
// checked on.
var churnGraphs = []gen.NetworkSpec{
	{Name: "c-small", Rows: 8, Cols: 10, Seed: 31},
	{Name: "c-mid", Rows: 14, Cols: 18, Seed: 37},
	{Name: "c-wide", Rows: 10, Cols: 32, Seed: 41},
}

func churnDB(t *testing.T, spec gen.NetworkSpec) *DB {
	t.Helper()
	g := gen.Network(spec)
	db, err := Open(g, WithMethods(Methods()...))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestChurnEquivalence is the central property of the dynamic object store:
// after every step of a random Insert/Remove workload, every built method
// answers KNN, KNNSeq, and Range over the incrementally maintained indexes
// exactly as a DB whose category was re-registered from scratch — across
// three graphs, with the epoch counter advancing per mutation.
func TestChurnEquivalence(t *testing.T) {
	for _, spec := range churnGraphs {
		t.Run(spec.Name, func(t *testing.T) {
			inc := churnDB(t, spec)     // mutated incrementally
			rebuilt := churnDB(t, spec) // re-registered from scratch each step
			g := inc.Graph()
			rng := rand.New(rand.NewSource(int64(spec.Seed)))
			ctx := context.Background()

			current := map[int32]bool{}
			initial := gen.Uniform(g, 0.05, int64(spec.Seed)+1)
			for _, v := range initial {
				current[v] = true
			}
			if err := inc.RegisterObjects(DefaultCategory, initial); err != nil {
				t.Fatal(err)
			}

			lastEpoch, err := inc.Epoch(DefaultCategory)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 25; step++ {
				// Mutate: a small batch of inserts or removes.
				var batch []int32
				for i := 0; i < 1+rng.Intn(4); i++ {
					batch = append(batch, int32(rng.Intn(g.NumVertices())))
				}
				if rng.Intn(2) == 0 {
					if err := inc.InsertObjects(DefaultCategory, batch); err != nil {
						t.Fatal(err)
					}
					for _, v := range batch {
						current[v] = true
					}
				} else {
					if err := inc.RemoveObjects(DefaultCategory, batch); err != nil {
						t.Fatal(err)
					}
					for _, v := range batch {
						delete(current, v)
					}
				}
				epoch, err := inc.Epoch(DefaultCategory)
				if err != nil {
					t.Fatal(err)
				}
				if epoch < lastEpoch {
					t.Fatalf("step %d: epoch went backwards %d -> %d", step, lastEpoch, epoch)
				}
				lastEpoch = epoch

				var verts []int32
				for v := range current {
					verts = append(verts, v)
				}
				if err := rebuilt.RegisterObjects(DefaultCategory, verts); err != nil {
					t.Fatal(err)
				}
				if n, _ := inc.NumObjects(DefaultCategory); n != len(current) {
					t.Fatalf("step %d: NumObjects %d, want %d", step, n, len(current))
				}

				q := int32(rng.Intn(g.NumVertices()))
				for _, m := range inc.Methods() {
					got, err := inc.KNN(ctx, q, 6, WithMethod(m))
					if err != nil {
						t.Fatalf("step %d %s: %v", step, m, err)
					}
					want, err := rebuilt.KNN(ctx, q, 6, WithMethod(m))
					if err != nil {
						t.Fatalf("step %d %s (rebuilt): %v", step, m, err)
					}
					if !SameResults(got, want) {
						t.Fatalf("step %d %s q=%d: incremental %s rebuilt %s",
							step, m, q, FormatResults(got), FormatResults(want))
					}
					var streamed []Result
					for r, err := range inc.KNNSeq(ctx, q, 6, WithMethod(m)) {
						if err != nil {
							t.Fatalf("step %d %s KNNSeq: %v", step, m, err)
						}
						streamed = append(streamed, r)
					}
					if !SameResults(streamed, want) {
						t.Fatalf("step %d %s q=%d: KNNSeq %s rebuilt %s",
							step, m, q, FormatResults(streamed), FormatResults(want))
					}
				}
				gotR, err := inc.Range(ctx, q, 3000)
				if err != nil {
					t.Fatal(err)
				}
				wantR, err := rebuilt.Range(ctx, q, 3000)
				if err != nil {
					t.Fatal(err)
				}
				if !SameResults(gotR, wantR) {
					t.Fatalf("step %d q=%d: Range incremental %s rebuilt %s",
						step, q, FormatResults(gotR), FormatResults(wantR))
				}
			}
		})
	}
}

// TestChurnPinnedEpochMidStream drives the epoch-pinning guarantee
// deterministically: a KNNSeq stream started before a burst of mutations
// must finish answering from the epoch it pinned at its start, even though
// the live set has since been replaced several epochs over.
func TestChurnPinnedEpochMidStream(t *testing.T) {
	db := churnDB(t, gen.NetworkSpec{Name: "c-pin", Rows: 12, Cols: 14, Seed: 43})
	g := db.Graph()
	ctx := context.Background()
	initial := gen.Uniform(g, 0.08, 44)
	if err := db.RegisterObjects(DefaultCategory, initial); err != nil {
		t.Fatal(err)
	}
	q := int32(17)
	const k = 10

	for _, m := range db.Methods() {
		want, err := db.KNN(ctx, q, k, WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}

		next, stop := iter.Pull2(db.KNNSeq(ctx, q, k, WithMethod(m)))
		r, e, ok := next()
		if !ok || e != nil {
			t.Fatalf("%s: first pull failed: %v %v", m, e, ok)
		}
		got := []Result{r}

		// Mid-stream churn: remove every object of the pinned epoch and
		// insert a disjoint set, several epochs' worth.
		for _, v := range initial {
			if err := db.RemoveObjects(DefaultCategory, []int32{v}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.InsertObjects(DefaultCategory, gen.Uniform(g, 0.03, 45)); err != nil {
			t.Fatal(err)
		}

		for {
			r, e, ok := next()
			if !ok {
				break
			}
			if e != nil {
				t.Fatalf("%s: mid-churn pull: %v", m, e)
			}
			got = append(got, r)
		}
		stop()
		if !SameResults(got, want) {
			t.Fatalf("%s: pinned stream diverged: got %s want %s",
				m, FormatResults(got), FormatResults(want))
		}

		// Restore the initial set for the next method's round.
		if err := db.RegisterObjects(DefaultCategory, initial); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentChurnAndQueries hammers mutations and queries together
// (the -race exercise): writers churn two categories while readers run
// KNN, KNNSeq, and Range on every method. Each answer must be internally
// consistent (nondecreasing distances, no duplicates) whatever epoch it
// pinned.
func TestConcurrentChurnAndQueries(t *testing.T) {
	db := churnDB(t, gen.NetworkSpec{Name: "c-conc", Rows: 12, Cols: 16, Seed: 47})
	g := db.Graph()
	for _, cat := range []string{DefaultCategory, "busy"} {
		if err := db.RegisterObjects(cat, gen.Uniform(g, 0.05, 48)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var stopFlag atomic.Bool
	var writers, readers sync.WaitGroup

	// Writers: one per category, alternating inserts and removes until the
	// readers are done.
	for wi, cat := range []string{DefaultCategory, "busy"} {
		writers.Add(1)
		go func(cat string, seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; !stopFlag.Load(); i++ {
				v := []int32{int32(rng.Intn(g.NumVertices()))}
				var err error
				if i%2 == 0 {
					err = db.InsertObjects(cat, v)
				} else {
					err = db.RemoveObjects(cat, v)
				}
				if err != nil {
					t.Errorf("writer %s: %v", cat, err)
					return
				}
			}
		}(cat, int64(50+wi))
	}

	methods := db.Methods()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				q := int32(rng.Intn(g.NumVertices()))
				m := methods[rng.Intn(len(methods))]
				cat := []string{DefaultCategory, "busy"}[rng.Intn(2)]
				var res []Result
				var err error
				switch i % 3 {
				case 0:
					res, err = db.KNN(ctx, q, 5, WithMethod(m), WithCategory(cat))
				case 1:
					for rr, e := range db.KNNSeq(ctx, q, 5, WithMethod(m), WithCategory(cat)) {
						if e != nil {
							err = e
							break
						}
						res = append(res, rr)
					}
				default:
					res, err = db.Range(ctx, q, 2000, WithCategory(cat))
				}
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				seen := map[int32]bool{}
				for j, rr := range res {
					if j > 0 && res[j-1].Dist > rr.Dist {
						t.Errorf("reader: distances decrease at %d: %s", j, FormatResults(res))
						return
					}
					if seen[rr.Vertex] {
						t.Errorf("reader: duplicate vertex %d", rr.Vertex)
						return
					}
					seen[rr.Vertex] = true
				}
			}
		}(int64(60 + r))
	}

	readers.Wait()
	stopFlag.Store(true)
	writers.Wait()
}

// TestInsertRemoveValidation covers the mutation API's edges: typed errors,
// category auto-creation, idempotent deltas, and draining to empty.
func TestInsertRemoveValidation(t *testing.T) {
	db := churnDB(t, gen.NetworkSpec{Name: "c-val", Rows: 8, Cols: 8, Seed: 53})
	ctx := context.Background()

	if err := db.InsertObjects("", []int32{1}); !errors.Is(err, ErrBadCategory) {
		t.Fatalf("empty name: %v", err)
	}
	if err := db.InsertObjects("x", []int32{-1}); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("bad vertex: %v", err)
	}
	if err := db.RemoveObjects("nope", []int32{1}); !errors.Is(err, ErrUnknownCategory) {
		t.Fatalf("unknown category: %v", err)
	}

	// InsertObjects into a fresh name creates the category (epoch 0).
	if err := db.InsertObjects("x", []int32{3, 5, 3}); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.NumObjects("x"); n != 2 {
		t.Fatalf("NumObjects after create = %d, want 2", n)
	}
	if e, _ := db.Epoch("x"); e != 0 {
		t.Fatalf("fresh category epoch = %d, want 0", e)
	}

	// Idempotent deltas do not advance the epoch.
	if err := db.InsertObjects("x", []int32{3}); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveObjects("x", []int32{60}); err != nil {
		t.Fatal(err)
	}
	if e, _ := db.Epoch("x"); e != 0 {
		t.Fatalf("no-op mutations advanced epoch to %d", e)
	}

	// Draining the category leaves it queryable and empty.
	if err := db.RemoveObjects("x", []int32{3, 5}); err != nil {
		t.Fatal(err)
	}
	if e, _ := db.Epoch("x"); e != 1 {
		t.Fatalf("drain epoch = %d, want 1", e)
	}
	for _, m := range db.Methods() {
		res, err := db.KNN(ctx, 0, 3, WithMethod(m), WithCategory("x"))
		if err != nil {
			t.Fatalf("%s on empty category: %v", m, err)
		}
		if len(res) != 0 {
			t.Fatalf("%s on empty category returned %s", m, FormatResults(res))
		}
	}

	// Stats reports live counts and epochs.
	if err := db.InsertObjects("x", []int32{9}); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Categories["x"] != 1 || st.Epochs["x"] != 2 {
		t.Fatalf("stats: count %d epoch %d", st.Categories["x"], st.Epochs["x"])
	}
}
