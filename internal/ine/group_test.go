package ine_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rnknn/internal/ine"
	"rnknn/internal/knn"
)

func TestGroupMatchesSingleQueries(t *testing.T) {
	g, objs, queries := setup(t, 61)
	x := ine.New(g, objs)
	single := ine.New(g, objs)
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(7)
		qs := make([]knn.GroupQuery, m)
		base := queries[rng.Intn(len(queries))]
		for u := range qs {
			// Nearby vertex ids are nearby on the generated grid: a
			// clustered group, the intended workload.
			v := base + int32(rng.Intn(9))
			if v >= int32(g.NumVertices()) {
				v = base
			}
			qs[u] = knn.GroupQuery{Q: v, K: 1 + rng.Intn(8)}
		}
		dst := make([][]knn.Result, m)
		x.KNNGroupAppend(qs, dst)
		for u, q := range qs {
			if err := knn.CheckAnswer(g, objs, q.Q, dst[u], single.KNN(q.Q, q.K)); err != nil {
				t.Fatalf("trial %d member %d (q=%d k=%d): group against single: %v", trial, u, q.Q, q.K, err)
			}
		}
	}
}

func TestGroupScatteredMembersStillExact(t *testing.T) {
	// Correctness must not depend on members being clustered.
	g, objs, queries := setup(t, 63)
	x := ine.New(g, objs)
	qs := []knn.GroupQuery{
		{Q: queries[0], K: 5},
		{Q: queries[len(queries)/2], K: 3},
		{Q: queries[len(queries)-1], K: 7},
	}
	dst := make([][]knn.Result, len(qs))
	x.KNNGroupAppend(qs, dst)
	for u, q := range qs {
		if err := knn.CheckAnswer(g, objs, q.Q, dst[u], knn.BruteForce(g, objs, q.Q, q.K)); err != nil {
			t.Fatalf("member %d: %v", u, err)
		}
	}
}

func TestGroupDuplicateMembers(t *testing.T) {
	g, objs, queries := setup(t, 64)
	x := ine.New(g, objs)
	q := queries[0]
	qs := []knn.GroupQuery{{Q: q, K: 4}, {Q: q, K: 4}, {Q: q, K: 2}}
	dst := make([][]knn.Result, len(qs))
	x.KNNGroupAppend(qs, dst)
	for u, gq := range qs {
		if err := knn.CheckAnswer(g, objs, q, dst[u], knn.BruteForce(g, objs, q, gq.K)); err != nil {
			t.Fatalf("dup member %d: %v", u, err)
		}
	}
}

// TestGroupHugeK pins that a member's k is clamped to the object count
// before anything is sized by it: two members at math.MaxInt32 once asked
// for 2^32 heap slots and killed the process. Each member's top-k queue and
// answer hold at most every object, so the call allocates under 1 MiB.
func TestGroupHugeK(t *testing.T) {
	g, objs, queries := setup(t, 67)
	x := ine.New(g, objs)
	qs := []knn.GroupQuery{{Q: queries[0], K: math.MaxInt32}, {Q: queries[1], K: math.MaxInt32}}
	dst := make([][]knn.Result, len(qs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	x.KNNGroupAppend(qs, dst)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("group of two huge-k members allocated %d bytes", alloc)
	}
	for u, q := range qs {
		if len(dst[u]) != objs.Len() {
			t.Fatalf("member %d: %d results, want every object (%d)", u, len(dst[u]), objs.Len())
		}
		if err := knn.CheckAnswer(g, objs, q.Q, dst[u], knn.BruteForce(g, objs, q.Q, objs.Len())); err != nil {
			t.Fatalf("member %d: %v", u, err)
		}
	}
}

func TestGroupWarmAllocFree(t *testing.T) {
	g, objs, queries := setup(t, 65)
	x := ine.New(g, objs)
	qs := []knn.GroupQuery{
		{Q: queries[0], K: 8},
		{Q: queries[0] + 1, K: 8},
		{Q: queries[0] + 2, K: 8},
		{Q: queries[0] + 3, K: 8},
	}
	dst := make([][]knn.Result, len(qs))
	for u := range dst {
		dst[u] = make([]knn.Result, 0, 16)
	}
	// Warm up: arenas grow to steady state.
	for i := 0; i < 3; i++ {
		for u := range dst {
			dst[u] = dst[u][:0]
		}
		x.KNNGroupAppend(qs, dst)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for u := range dst {
			dst[u] = dst[u][:0]
		}
		x.KNNGroupAppend(qs, dst)
	})
	if allocs != 0 {
		t.Fatalf("warm KNNGroupAppend allocates: %v allocs/run", allocs)
	}
}

func BenchmarkGroupVsSingles(b *testing.B) {
	g, objs, queries := setup(b, 66)
	x := ine.New(g, objs)
	const m, k = 8, 10
	qs := make([]knn.GroupQuery, m)
	for u := range qs {
		qs[u] = knn.GroupQuery{Q: queries[0] + int32(u), K: k}
	}
	dst := make([][]knn.Result, m)
	for u := range dst {
		dst[u] = make([]knn.Result, 0, k)
	}
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for u := range dst {
				dst[u] = dst[u][:0]
			}
			x.KNNGroupAppend(qs, dst)
		}
	})
	b.Run("singles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for u := range dst {
				dst[u] = x.KNNAppend(qs[u].Q, qs[u].K, dst[u][:0])
			}
		}
	})
}
