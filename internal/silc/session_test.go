package silc_test

import (
	"math/rand"
	"slices"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/knn"
	"rnknn/internal/silc"
)

// browsers returns both Distance Browsing forms over objs, each a fresh
// method with its own search state.
func browsers(x *silc.Index, objs *knn.ObjectSet) []knn.Method {
	return []knn.Method{silc.NewDBENN(x, objs), silc.NewDisBrw(x, x.NewObjectHierarchy(objs, 0))}
}

// TestWarmKNNZeroAllocs: on a warm Distance Browsing method, a steady-state
// KNNAppend into a caller-owned buffer performs zero heap allocations — the
// refiner arena, the stamped tables and both heaps live on the method and
// are reset in O(1) per query.
func TestWarmKNNZeroAllocs(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "alloc", Rows: 24, Cols: 24, Seed: 404})
	x := silc.Build(g)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 11))
	rng := rand.New(rand.NewSource(2))
	warm := make([]int32, 16)
	for i := range warm {
		warm[i] = int32(rng.Intn(g.NumVertices()))
	}
	const k = 8
	for _, m := range browsers(x, objs) {
		t.Run(m.Name(), func(t *testing.T) {
			buf := make([]knn.Result, 0, k)
			for _, q := range warm {
				buf = m.KNNAppend(q, k, buf[:0])
			}
			q := warm[0]
			allocs := testing.AllocsPerRun(50, func() {
				buf = m.KNNAppend(q, k, buf[:0])
			})
			if allocs != 0 {
				t.Errorf("warm KNNAppend allocates %v allocs/op, want 0", allocs)
			}
			if len(buf) != k {
				t.Fatalf("got %d results, want %d", len(buf), k)
			}
		})
	}
}

// TestDirtyScratchReuse: a method whose reusable state has been dirtied by
// 200 consecutive queries of varying k and query vertex answers every one
// byte-identically to a method made fresh for that one query.
func TestDirtyScratchReuse(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "r-small", Rows: 8, Cols: 10, Seed: 61})
	x := silc.Build(g)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.06, 62))
	for i, warm := range browsers(x, objs) {
		t.Run(warm.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			for step := 0; step < 200; step++ {
				q := int32(rng.Intn(g.NumVertices()))
				k := 1 + rng.Intn(12)
				got := warm.KNNAppend(q, k, nil)
				want := browsers(x, objs)[i].KNNAppend(q, k, nil)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d KNN(q=%d,k=%d): reused method diverged:\n got %s\nwant %s",
						step, q, k, knn.FormatResults(got), knn.FormatResults(want))
				}
			}
		})
	}
}
