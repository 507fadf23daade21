package rnknn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/knn"
)

// TestConcurrentQueriesWithLiveSwap is the concurrency contract of the DB:
// many goroutines issue mixed kNN/range queries across several methods
// against one shared DB while another goroutine keeps swapping the object
// category between two sets. Every answer must match the brute-force
// reference on whichever set was live when the query snapshotted its
// binding — under -race this also proves the pooled sessions and atomic
// category swaps are data-race free.
func TestConcurrentQueriesWithLiveSwap(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "conc", Rows: 16, Cols: 20, Seed: 9})
	db, err := Open(g, WithMethods(INE, IERPHL, IERCH, Gtree, ROAD))
	if err != nil {
		t.Fatal(err)
	}
	setA := gen.Uniform(g, 0.03, 100)
	setB := gen.Uniform(g, 0.03, 200)
	if err := db.RegisterObjects("poi", setA); err != nil {
		t.Fatal(err)
	}

	// Precompute the correctness references for both sets at every query
	// vertex: a concurrent answer must equal one of the two (the one whose
	// set was live at snapshot time).
	const k = 5
	const radius = Dist(6000)
	objsA := knn.NewObjectSet(g, setA)
	objsB := knn.NewObjectSet(g, setB)
	queries := gen.QueryVertices(g, 10, 77)
	knnWant := map[int32][2][]Result{}
	rangeWant := map[int32][2][]Result{}
	for _, q := range queries {
		knnWant[q] = [2][]Result{
			knn.BruteForce(g, objsA, q, k),
			knn.BruteForce(g, objsB, q, k),
		}
		rangeWant[q] = [2][]Result{
			knn.BruteForceRange(g, objsA, q, radius),
			knn.BruteForceRange(g, objsB, q, radius),
		}
	}
	matchesEither := func(got []Result, want [2][]Result) bool {
		return SameResults(got, want[0]) || SameResults(got, want[1])
	}

	const workers = 8
	const iters = 150
	methods := []Method{INE, IERPHL, IERCH, Gtree, ROAD}
	ctx := context.Background()
	stop := make(chan struct{})
	var swaps sync.WaitGroup
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			set := setA
			if i%2 == 1 {
				set = setB
			}
			if err := db.RegisterObjects("poi", set); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(w+i)%len(queries)]
				if i%4 == 3 {
					got, err := db.Range(ctx, q, radius, WithCategory("poi"))
					if err != nil {
						t.Error(err)
						return
					}
					if !matchesEither(got, rangeWant[q]) {
						t.Errorf("worker %d: range q=%d matches neither live set: %s", w, q, FormatResults(got))
						return
					}
					continue
				}
				m := methods[(w+i)%len(methods)]
				got, err := db.KNN(ctx, q, k, WithMethod(m), WithCategory("poi"))
				if err != nil {
					t.Error(err)
					return
				}
				if !matchesEither(got, knnWant[q]) {
					t.Errorf("worker %d: %s q=%d matches neither live set: %s", w, m, q, FormatResults(got))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	swaps.Wait()

	s := db.Stats()
	var totalKNN, totalRange uint64
	for _, ms := range s.Methods {
		totalKNN += ms.KNNQueries
		totalRange += ms.RangeQueries
	}
	if totalKNN == 0 || totalRange == 0 {
		t.Fatalf("stats did not record the concurrent workload: %+v", s.Methods)
	}
}

// TestQueryRacesFirstRegistration queries a category name while it is being
// registered for the first time: until the registration lands the query
// must report ErrUnknownCategory, never observe a half-published category
// (a category visible in the map with no binding would panic).
func TestQueryRacesFirstRegistration(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "fresh", Rows: 8, Cols: 10, Seed: 6})
	db, err := Open(g, WithMethods(INE))
	if err != nil {
		t.Fatal(err)
	}
	set := gen.Uniform(g, 0.05, 5)
	ctx := context.Background()
	for round := 0; round < 30; round++ {
		name := fmt.Sprintf("cat-%d", round)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, err := db.KNN(ctx, 0, 2, WithCategory(name))
					if err == nil {
						return
					}
					if !errors.Is(err, ErrUnknownCategory) {
						t.Error(err)
						return
					}
				}
			}()
		}
		if err := db.RegisterObjects(name, set); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// TestConcurrentRegisterSameCategory hammers RegisterObjects on one name
// from many goroutines (the map-insert double-check path).
func TestConcurrentRegisterSameCategory(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "reg", Rows: 8, Cols: 10, Seed: 4})
	db, err := Open(g, WithMethods(INE, Gtree))
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]int32{
		gen.Uniform(g, 0.05, 1),
		gen.Uniform(g, 0.05, 2),
		gen.Uniform(g, 0.05, 3),
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := db.RegisterObjects("hot", sets[(w+i)%len(sets)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(db.Categories()) != 1 || db.Categories()[0] != "hot" {
		t.Fatalf("categories = %v", db.Categories())
	}
}
