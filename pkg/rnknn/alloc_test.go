package rnknn

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"rnknn/internal/gen"
)

// TestDBKNNAppendZeroAllocs pins the public-API half of the Issue 5
// contract: on a warm DB, KNNAppend into a caller-reused buffer performs
// zero heap allocations per query for every enabled method and for
// MethodAuto (the planner formats its rationale only for Explain) — the
// pooled session owns all transient search state, the interrupt closure is
// bound once at session manufacture, and result storage is caller-owned. The
// buffered KNN form allocates exactly its caller-visible result slice and
// nothing else, which the companion BenchmarkDBKNNAllocs tracks in the
// perf trajectory.
func TestDBKNNAppendZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every queried index")
	}
	if raceEnabled {
		t.Skip("race-detector sync.Pool drops Puts; pooled sessions are re-manufactured mid-run")
	}
	g := gen.Network(gen.NetworkSpec{Name: "alloc", Rows: 24, Cols: 24, Seed: 606})
	db, err := Open(g,
		WithMethods(INE, IERPHL, IERCH, Gtree, ROAD),
		WithObjects(DefaultCategory, gen.Uniform(g, 0.05, 13)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const k = 8

	for _, m := range append(db.Methods(), MethodAuto) {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			opt := WithMethod(m)
			var buf []Result
			// Warm up: manufacture the pooled session and grow its scratch
			// to steady state.
			for q := int32(0); q < 16; q++ {
				buf, err = db.KNNAppend(ctx, q*29, k, buf[:0], opt)
				if err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				buf, _ = db.KNNAppend(ctx, 137, k, buf[:0], opt)
			})
			if allocs != 0 {
				t.Errorf("%s: warm db.KNNAppend allocates %v allocs/op, want 0", m, allocs)
			}
			if len(buf) != k {
				t.Fatalf("%s: got %d results, want %d", m, len(buf), k)
			}
		})
	}

	// A range is as allocation-free on either of its forms, and through the
	// planner (which picks IER-PHL at this density).
	t.Run("Range", func(t *testing.T) {
		for _, m := range []Method{MethodAuto, INE, IERPHL} {
			t.Run(m.String(), func(t *testing.T) {
				opt := WithMethod(m)
				var buf []Result
				for q := int32(0); q < 8; q++ {
					var err error
					buf, err = db.RangeAppend(ctx, q*31, 4000, buf[:0], opt)
					if err != nil {
						t.Fatal(err)
					}
				}
				allocs := testing.AllocsPerRun(50, func() {
					buf, _ = db.RangeAppend(ctx, 137, 4000, buf[:0], opt)
				})
				if allocs != 0 || len(buf) == 0 {
					t.Errorf("warm db.RangeAppend allocates %v allocs/op for %d results, want 0 for some", allocs, len(buf))
				}
			})
		}
	})
}

// TestBindingFixedCost gates what one registered category costs however few
// objects it holds — the in-tree twin of what rnbench's rss_mb sees of the
// harness's 148 categories (four times over on a shard set). A binding holds
// one object set (a membership bit per vertex) that every derived index
// reads, the R-tree, ROAD's occupancy bit per Rnet, and G-tree's per-node
// count and leaf offset: ≈7 KB on NW. The next per-vertex or per-Rnet array
// added to a binding (the per-Rnet counts and two private membership
// bitsets made it 52 KB, G-tree's per-node slice headers 22 KB) fails here,
// not at a benchmark bound.
func TestBindingFixedCost(t *testing.T) {
	if testing.Short() {
		t.Skip("builds PHL, G-tree and ROAD on NW")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the binding's")
	}
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	db, err := Open(g, WithMethods(INE, IERPHL, Gtree, ROAD))
	if err != nil {
		t.Fatal(err)
	}
	const cats = 64
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for c := int32(0); c < cats; c++ {
		if err := db.RegisterObjects(fmt.Sprint("cat", c), []int32{c * 131, c*131 + 7000}); err != nil {
			t.Fatal(err)
		}
	}
	perCat := float64(heap()-before) / cats / 1024
	t.Logf("%.1f KB per two-object category on %s (|V| = %d)", perCat, spec.Name, g.NumVertices())
	if perCat > 10 {
		t.Errorf("a two-object category costs %.1f KB, want <= 10", perCat)
	}
	runtime.KeepAlive(db)
}
