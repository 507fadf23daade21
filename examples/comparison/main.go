// Comparison: a miniature of the paper's study through the public API.
// Open a DB with every method over one network and object set, verify each
// agrees with brute force, and print per-method timings from DB.Stats — a
// sanity harness for adopters choosing a method for their workload.
// Distance Browsing and IER over the Dijkstra and G-tree oracles are not
// served; cmd/knnexp runs them for the figures.
package main

import (
	"context"
	"fmt"
	"time"

	"rnknn/internal/gen"
	"rnknn/pkg/rnknn"
)

func main() {
	g := gen.Network(gen.NetworkSpec{Name: "bench", Rows: 48, Cols: 60, Seed: 8})
	start := time.Now()
	db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Methods()...),
		rnknn.WithObjects(rnknn.DefaultCategory, gen.Uniform(g, 0.001, 9)))
	if err != nil {
		panic(err)
	}
	openTime := time.Since(start)

	queries := gen.QueryVertices(g, 50, 10)
	k := 10
	numObjects, _ := db.NumObjects(rnknn.DefaultCategory)
	fmt.Printf("network: %d vertices; objects: %d; k=%d; %d queries; all indexes built in %s\n\n",
		g.NumVertices(), numObjects, k, len(queries), openTime.Round(time.Millisecond))
	fmt.Printf("%-10s %12s %12s %8s\n", "method", "index build", "us/query", "correct")

	ctx := context.Background()
	indexFor := map[rnknn.Method]string{
		rnknn.IERCH: "CH", rnknn.IERTNR: "TNR", rnknn.IERPHL: "PHL", rnknn.Gtree: "Gtree", rnknn.ROAD: "ROAD",
	}
	stats := db.Stats()
	for _, m := range db.Methods() {
		correct := true
		for _, q := range queries {
			got, err := db.KNN(ctx, q, k, rnknn.WithMethod(m))
			if err != nil {
				panic(err)
			}
			want, err := db.BruteForceKNN(q, k)
			if err != nil {
				panic(err)
			}
			if !rnknn.SameResults(got, want) {
				correct = false
			}
		}
		build := stats.Indexes[indexFor[m]].BuildTime
		ms := db.Stats().Methods[m.String()]
		perQuery := float64(ms.TotalLatency.Microseconds()) / float64(ms.KNNQueries)
		fmt.Printf("%-10s %12s %12.1f %8v\n", m, build.Round(time.Millisecond), perQuery, correct)
	}
	fmt.Println("\nindex build times are shared: methods over the same index (IER-CH,")
	fmt.Println("IER-TNR, IER-PHL share the contraction hierarchy) reuse it.")
}
