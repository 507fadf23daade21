package rnknn_test

import (
	"context"
	"fmt"
	"os"

	"rnknn/pkg/rnknn"
)

// exampleGraph builds a tiny 2x3 grid road network through the public
// GraphBuilder: vertex v sits at column v%3, row v/3, cells 1000 units
// apart, every edge 1000 long in both weight metrics.
//
//	0 - 1 - 2
//	|   |   |
//	3 - 4 - 5
func exampleGraph() *rnknn.Graph {
	x := []float64{0, 1000, 2000, 0, 1000, 2000}
	y := []float64{0, 0, 0, 1000, 1000, 1000}
	b := rnknn.NewGraphBuilder(6, x, y)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {1, 4}, {2, 5}} {
		b.AddEdge(e[0], e[1], 1000, 1000)
	}
	return b.Build("example")
}

// ExampleOpen mirrors the README quickstart: open a DB, register an object
// category, and answer a kNN query.
func ExampleOpen() {
	g := exampleGraph()
	db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree, rnknn.INE))
	if err != nil {
		panic(err)
	}
	if err := db.RegisterObjects(rnknn.DefaultCategory, []int32{2, 3}); err != nil {
		panic(err)
	}
	results, err := db.KNN(context.Background(), 0, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(rnknn.FormatResults(results))
	// Output: [3:1000 2:2000]
}

// ExampleDB_KNN queries a named object category with an explicitly chosen
// method and a range query alongside.
func ExampleDB_KNN() {
	g := exampleGraph()
	db, err := rnknn.Open(g,
		rnknn.WithMethods(rnknn.INE, rnknn.IERCH),
		rnknn.WithObjects("cafes", []int32{2, 4}))
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	nearest, err := db.KNN(ctx, 3, 1, rnknn.WithMethod(rnknn.IERCH), rnknn.WithCategory("cafes"))
	if err != nil {
		panic(err)
	}
	within, err := db.Range(ctx, 3, 2000, rnknn.WithCategory("cafes"))
	if err != nil {
		panic(err)
	}
	fmt.Println("nearest:", rnknn.FormatResults(nearest))
	fmt.Println("within 2000:", rnknn.FormatResults(within))
	// Output:
	// nearest: [4:1000]
	// within 2000: [4:1000]
}

// ExampleWithIndexCache shows the save-after-build / load-before-build
// lifecycle: the first Open pays construction and writes the snapshot, the
// second loads it — observable via Stats.
func ExampleWithIndexCache() {
	dir, err := os.MkdirTemp("", "rnknn-cache")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	g := exampleGraph()
	open := func() *rnknn.DB {
		db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree), rnknn.WithIndexCache(dir))
		if err != nil {
			panic(err)
		}
		return db
	}
	cold := open() // builds the G-tree, saves <name>-<fingerprint>.rnks
	warm := open() // loads it instead of building
	fmt.Println("cold open loaded from snapshot:", cold.Stats().Indexes["Gtree"].Loaded)
	fmt.Println("warm open loaded from snapshot:", warm.Stats().Indexes["Gtree"].Loaded)
	// Output:
	// cold open loaded from snapshot: false
	// warm open loaded from snapshot: true
}

// ExampleDB_KNNSeq streams neighbors as the expansion confirms them: the
// loop sees the first result before the search finishes, and breaking out
// abandons the rest of the scan.
func ExampleDB_KNNSeq() {
	g := exampleGraph()
	db, err := rnknn.Open(g,
		rnknn.WithMethods(rnknn.INE),
		rnknn.WithObjects(rnknn.DefaultCategory, []int32{2, 3}))
	if err != nil {
		panic(err)
	}
	for r, err := range db.KNNSeq(context.Background(), 0, 2) {
		if err != nil {
			panic(err)
		}
		fmt.Printf("vertex %d at distance %d\n", r.Vertex, r.Dist)
	}
	// Output:
	// vertex 3 at distance 1000
	// vertex 2 at distance 2000
}

// ExampleDB_InsertObjects churns an object category the incremental way: a
// taxi goes off shift and another comes on, each change deriving the next
// epoch from the last in O(delta) instead of rebuilding the object indexes,
// with the epoch counter recording how many changes the category absorbed.
func ExampleDB_InsertObjects() {
	g := exampleGraph()
	db, err := rnknn.Open(g,
		rnknn.WithMethods(rnknn.Gtree, rnknn.INE),
		rnknn.WithObjects("taxis", []int32{2, 3}))
	if err != nil {
		panic(err)
	}
	ctx := context.Background()

	// Taxi at vertex 3 goes off shift; a new one appears at vertex 5.
	if err := db.RemoveObjects("taxis", []int32{3}); err != nil {
		panic(err)
	}
	if err := db.InsertObjects("taxis", []int32{5}); err != nil {
		panic(err)
	}

	nearest, err := db.KNN(ctx, 0, 2, rnknn.WithCategory("taxis"))
	if err != nil {
		panic(err)
	}
	epoch, _ := db.Epoch("taxis")
	fmt.Println("nearest:", rnknn.FormatResults(nearest))
	fmt.Println("epoch:", epoch)
	// Output:
	// nearest: [2:2000 5:3000]
	// epoch: 2
}

// ExampleDB_Monitor follows a moving query along a route: Monitor streams
// result-set deltas (enter/exit/distance-change events) instead of full
// answers, and each step is either proven still-exact by the cheap
// safe-region check (refresh "none") or re-anchored by one fresh search
// (refresh "initial"/"drift"/"epoch"/"jump").
func ExampleDB_Monitor() {
	g := exampleGraph()
	db, err := rnknn.Open(g,
		rnknn.WithMethods(rnknn.INE),
		rnknn.WithObjects(rnknn.DefaultCategory, []int32{2, 3}))
	if err != nil {
		panic(err)
	}
	for u, err := range db.Monitor(context.Background(), []int32{0, 1, 2}, 1) {
		if err != nil {
			panic(err)
		}
		fmt.Printf("step %d at vertex %d (refresh %s):", u.Step, u.Vertex, u.Refresh)
		for _, e := range u.Events {
			switch e.Kind {
			case rnknn.MonitorEnter:
				fmt.Printf(" +%d:%d", e.Object, e.Dist)
			case rnknn.MonitorExit:
				fmt.Printf(" -%d", e.Object)
			case rnknn.MonitorDistChange:
				fmt.Printf(" ~%d:%d", e.Object, e.Dist)
			}
		}
		fmt.Println()
	}
	// Output:
	// step 0 at vertex 0 (refresh initial): +3:1000
	// step 1 at vertex 1 (refresh drift): -3 +2:1000
	// step 2 at vertex 2 (refresh drift): ~2:0
}

// ExampleDB_Batch runs several queries as one unit of work: sessions are
// checked out once per worker, results come back in Add order, and
// MethodAuto lets the planner pick the method per query.
func ExampleDB_Batch() {
	g := exampleGraph()
	db, err := rnknn.Open(g,
		rnknn.WithMethods(rnknn.INE, rnknn.Gtree),
		rnknn.WithObjects(rnknn.DefaultCategory, []int32{2, 3}))
	if err != nil {
		panic(err)
	}
	results, err := db.Batch().
		AddKNN(0, 1).
		AddKNN(5, 1, rnknn.WithMethod(rnknn.MethodAuto)).
		AddRange(4, 1000).
		Run(context.Background())
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		if r.Err != nil {
			panic(r.Err)
		}
		fmt.Printf("q=%d: %s\n", r.Query, rnknn.FormatResults(r.Results))
	}
	// Output:
	// q=0: [3:1000]
	// q=5: [2:1000]
	// q=4: [3:1000]
}
