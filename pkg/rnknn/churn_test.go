package rnknn

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rnknn/internal/gen"
)

func churnDB(t *testing.T, spec gen.NetworkSpec) *DB {
	t.Helper()
	g := gen.Network(spec)
	db, err := Open(g, WithMethods(Methods()...))
	if err != nil {
		t.Fatal(err)
	}
	return db
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
