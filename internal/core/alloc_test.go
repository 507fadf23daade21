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
// Every kind is measured, including the two SILC variants and the IER
// oracles beyond the required set (INE, IER-PHL, IER-CH, Gtree, ROAD,
// DisBrw).
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

	for _, kind := range core.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			b := e.NewBinding(objs, []core.MethodKind{kind})
			sess, err := e.NewSession(kind, b)
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
				t.Errorf("%s: warm KNNAppend allocates %v allocs/op, want 0", kind, allocs)
			}
			if len(buf) != k {
				t.Fatalf("%s: got %d results, want %d", kind, len(buf), k)
			}
		})
	}
}

// TestWarmSessionRangeZeroAllocs pins the same property for the range query:
// INE's bounded expansion, and Euclidean restriction over the pinned PHL
// source and the suspended Dijkstra.
func TestWarmSessionRangeZeroAllocs(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "alloc-r", Rows: 20, Cols: 20, Seed: 405})
	e := core.New(g)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 12))
	for _, kind := range []core.MethodKind{core.INE, core.IERPHL, core.IERDijk} {
		b := e.NewBinding(objs, []core.MethodKind{kind})
		sess, err := e.NewSession(kind, b)
		if err != nil {
			t.Fatal(err)
		}
		rm := sess.(knn.RangeMethod)
		var buf []knn.Result
		for i := 0; i < 8; i++ {
			buf = rm.RangeAppend(int32(i*17), 5000, buf[:0])
		}
		allocs := testing.AllocsPerRun(50, func() {
			buf = rm.RangeAppend(137, 5000, buf[:0])
		})
		if allocs != 0 || len(buf) == 0 {
			t.Errorf("%s: warm RangeAppend allocates %v allocs/op for %d results, want 0 for some", kind, allocs, len(buf))
		}
	}
}
