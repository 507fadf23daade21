package ine_test

import (
	"slices"
	"testing"

	"rnknn/internal/graph"
	"rnknn/internal/ine"
	"rnknn/internal/knn"
)

// arc is one directed arc of a hand-built CSR graph.
type arc struct{ from, to, w int32 }

// csr packs arcs into a graph over n vertices, keeping each vertex's arcs
// in the order given. Travel-time weights are a scrambled function of the
// distance weights, so the two views order paths differently. Nothing is
// symmetrised or deduplicated: self-loops, parallel arcs and one-way arcs
// stay as given, as in a mapped snapshot that passed the graph section's
// checks.
func csr(n int, arcs []arc) *graph.Graph {
	g := &graph.Graph{
		Name:    "chains",
		Offsets: make([]int32, n+1),
		Targets: make([]int32, len(arcs)),
		DistW:   make([]int32, len(arcs)),
		TimeW:   make([]int32, len(arcs)),
		X:       make([]float64, n),
		Y:       make([]float64, n),
	}
	for _, a := range arcs {
		g.Offsets[a.from+1]++
	}
	for v := range n {
		g.Offsets[v+1] += g.Offsets[v]
	}
	next := slices.Clone(g.Offsets[:n])
	for _, a := range arcs {
		i := next[a.from]
		next[a.from]++
		g.Targets[i], g.DistW[i], g.TimeW[i] = a.to, a.w, (a.w*7)%11+1
	}
	g.W = g.DistW
	return g
}

// edge returns the two arcs of an undirected edge.
func edge(u, v, w int32) []arc { return []arc{{u, v, w}, {v, u, w}} }

// chainGraph decodes data into a graph of at most 64 vertices rich in
// degree-2 vertices, an object set, a query vertex, k, a radius and a kNN
// bound. The first five bytes pick the query, k, the radius, the object
// pattern, and the weight view (low bit) with the bound (the other seven: 0
// to 126, and 127 for graph.Inf); each following op byte appends one shape over vertices
// already present: a chain between two of them, a lollipop, a pure cycle,
// a dead-end chain, a pair of parallel edges, a one-way arc, a self-loop or
// a plain edge. Missing bytes read as zero.
func chainGraph(data []byte) (*graph.Graph, *knn.ObjectSet, int32, int, graph.Dist, graph.Dist) {
	next := func() int32 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int32(b)
	}
	qb, kb, rb, ob, view := next(), next(), next(), next(), next()
	n := int32(1 + next()%3) // hubs
	var arcs []arc
	fresh := func() int32 { n++; return n - 1 }
	pick := func() int32 { return next() % n }
	weight := func() int32 { return 1 + next()%9 }
	// path links from through count new vertices to to (to < 0: a dead
	// end), returning the last new vertex.
	path := func(from int32, count int32, to int32) int32 {
		last := from
		for range count {
			c := fresh()
			arcs = append(arcs, edge(last, c, weight())...)
			last = c
		}
		if to >= 0 {
			arcs = append(arcs, edge(last, to, weight())...)
		}
		return last
	}
	for len(data) > 0 && n < 56 {
		switch next() % 8 {
		case 0: // chain between two vertices
			a, b := pick(), pick()
			path(a, next()%6, b)
		case 1: // lollipop: a stick, then a cycle hanging off its end
			end := path(pick(), 1+next()%4, -1)
			path(end, 2+next()%4, end)
		case 2: // pure cycle of fresh vertices, its own component
			first := fresh()
			path(first, next()%5, first)
		case 3: // dead-end chain
			path(pick(), 1+next()%5, -1)
		case 4: // parallel edges
			a, b := pick(), pick()
			arcs = append(arcs, edge(a, b, weight())...)
			arcs = append(arcs, edge(a, b, weight())...)
		case 5: // one-way arc
			a, b := pick(), pick()
			arcs = append(arcs, arc{a, b, weight()})
		case 6: // self-loop
			a := pick()
			arcs = append(arcs, arc{a, a, weight()})
		case 7: // plain edge
			a, b := pick(), pick()
			arcs = append(arcs, edge(a, b, weight())...)
		}
	}
	g := csr(int(n), arcs)
	if view&1 == 1 {
		g = g.View(graph.TravelTime)
	}
	var objs []int32
	for v := range n {
		if (v*7+ob)%(2+ob%5) == 0 {
			objs = append(objs, v)
		}
	}
	bound := graph.Dist(view >> 1)
	if bound == 127 {
		bound = graph.Inf
	}
	return g, knn.NewObjectSet(g, objs), qb % n, 1 + int(kb%8), graph.Dist(rb), bound
}

// checkAgainstBruteForce fails t unless INE's KNN, bounded KNN and Range
// from q agree with the brute-force scans: KNN with BruteForce and the
// bounded form with the first k of the brute-force range within bound,
// both under knn.CheckAnswer, and Range exactly up to the order of ties.
func checkAgainstBruteForce(t *testing.T, g *graph.Graph, objs *knn.ObjectSet, q int32, k int, radius, bound graph.Dist) {
	t.Helper()
	x := ine.New(g, objs)
	if got, want := x.KNN(q, k), knn.BruteForce(g, objs, q, k); knn.CheckAnswer(g, objs, q, got, want) != nil {
		t.Fatalf("KNN(%d, %d) = %s, brute force %s", q, k, knn.FormatResults(got), knn.FormatResults(want))
	}
	within := knn.BruteForceRange(g, objs, q, bound)
	slices.SortFunc(within, knn.ByDistVertex)
	if got, want := x.KNNWithinAppend(q, k, bound, nil), within[:min(k, len(within))]; knn.CheckAnswer(g, objs, q, got, want) != nil {
		t.Fatalf("KNNWithinAppend(%d, %d, %d) = %s, brute force %s", q, k, bound, knn.FormatResults(got), knn.FormatResults(want))
	}
	got, want := x.Range(q, radius), knn.BruteForceRange(g, objs, q, radius)
	slices.SortFunc(got, knn.ByDistVertex)
	slices.SortFunc(want, knn.ByDistVertex)
	if !slices.Equal(got, want) {
		t.Fatalf("Range(%d, %d) = %s, brute force %s", q, radius, knn.FormatResults(got), knn.FormatResults(want))
	}
}

// FuzzINEMatchesBruteForce checks INE's chain walk on graphs made mostly of
// chains (see chainGraph): pure cycles, lollipops, parallel arcs,
// self-loops, one-way arcs, objects and queries inside chains, under both
// weight views, unbounded and cut off at a bound.
func FuzzINEMatchesBruteForce(f *testing.F) {
	// header: query, k, radius, objects, view and bound; then hubs and ops.
	f.Add([]byte{0, 3, 40, 1, 40, 1, 0, 0, 1, 5, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{5, 2, 30, 2, 31, 0, 1, 0, 3, 1, 2, 3, 4, 5})              // lollipop
	f.Add([]byte{2, 1, 20, 3, 0, 0, 2, 5, 1, 1, 1, 1, 1, 1})               // pure cycle
	f.Add([]byte{1, 4, 60, 0, 255, 1, 4, 0, 1, 3, 7, 0, 0, 1, 4, 2, 2, 2}) // parallel edges
	f.Add([]byte{3, 2, 50, 4, 0, 2, 0, 0, 1, 4, 2, 3, 5, 1, 2, 6, 3, 4})   // chain, then a one-way arc
	f.Add([]byte{4, 5, 90, 1, 1, 0, 3, 0, 5, 2, 3, 4, 5, 6, 6, 2, 3, 3})   // dead end and a self-loop
	f.Add([]byte{7, 8, 255, 5, 0, 2, 0, 0, 2, 1, 1, 1, 0, 1, 0, 3, 2, 2})  // two chains between hubs
	f.Add([]byte("00010029000$01000012Y7X%1X01A000"))                      // a one-way arc into a chain vertex
	f.Fuzz(func(t *testing.T, data []byte) {
		g, objs, q, k, radius, bound := chainGraph(data)
		checkAgainstBruteForce(t, g, objs, q, k, radius, bound)
	})
}
