package core_test

import (
	"math/rand"
	"testing"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/knn"
)

// TestWarmSessionKNNZeroAllocs is the Issue 5 acceptance gate: on a warm
// query session, a steady-state KNNAppend into a caller-owned buffer must
// perform zero heap allocations for every built method — the transient
// search state (heaps, stamped distance arrays, evicted sets, oracle
// sources) all lives on the session and is reset in O(1) per query.
//
// Every kind is measured, and so are the IER forms only the figure harness
// builds (IER-Dijk, IER-Gt; see sessionForms). Distance Browsing's gate is
// internal/silc's TestWarmKNNZeroAllocs.
func TestWarmSessionKNNZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every index")
	}
	g := gen.Network(gen.NetworkSpec{Name: "alloc", Rows: 24, Cols: 24, Seed: 404})
	e := core.New(g)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 11))

	rng := rand.New(rand.NewSource(2))
	warm := make([]int32, 16)
	for i := range warm {
		warm[i] = int32(rng.Intn(g.NumVertices()))
	}
	const k = 8

	for _, form := range sessionForms(e, objs) {
		t.Run(form.name, func(t *testing.T) {
			sess, err := form.new()
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]knn.Result, 0, k)
			// Warm the session: first queries may grow heaps, stamp arrays
			// and arenas to their steady-state footprint.
			for _, q := range warm {
				buf = sess.KNNAppend(q, k, buf[:0])
			}
			q := warm[0]
			allocs := testing.AllocsPerRun(50, func() {
				buf = sess.KNNAppend(q, k, buf[:0])
			})
			if allocs != 0 {
				t.Errorf("%s: warm KNNAppend allocates %v allocs/op, want 0", form.name, allocs)
			}
			if len(buf) != k {
				t.Fatalf("%s: got %d results, want %d", form.name, len(buf), k)
			}
		})
	}
}

// TestWarmSessionRangeZeroAllocs pins the same property for the range query:
// INE's bounded expansion, and Euclidean restriction over every oracle (the
// CH searcher, the TNR querier, the pinned PHL source, and the harness's
// suspended Dijkstra and G-tree assembly).
func TestWarmSessionRangeZeroAllocs(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "alloc-r", Rows: 20, Cols: 20, Seed: 405})
	e := core.New(g)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 12))
	for _, form := range sessionForms(e, objs) {
		sess, err := form.new()
		if err != nil {
			t.Fatal(err)
		}
		rm, ok := sess.(knn.RangeMethod)
		if !ok {
			continue // G-tree and ROAD have no range form
		}
		var buf []knn.Result
		for i := 0; i < 8; i++ {
			buf = rm.RangeAppend(int32(i*17), 5000, buf[:0])
		}
		allocs := testing.AllocsPerRun(50, func() {
			buf = rm.RangeAppend(137, 5000, buf[:0])
		})
		if allocs != 0 || len(buf) == 0 {
			t.Errorf("%s: warm RangeAppend allocates %v allocs/op for %d results, want 0 for some", form.name, allocs, len(buf))
		}
	}
}
