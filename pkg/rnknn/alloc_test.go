package rnknn

import (
	"context"
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
		WithMethods(INE, IERPHL, IERCH, Gtree, ROAD, DisBrw),
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

	t.Run("Range", func(t *testing.T) {
		var buf []Result
		for q := int32(0); q < 8; q++ {
			var err error
			buf, err = db.RangeAppend(ctx, q*31, 4000, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			buf, _ = db.RangeAppend(ctx, 137, 4000, buf[:0])
		})
		if allocs != 0 {
			t.Errorf("warm db.RangeAppend allocates %v allocs/op, want 0", allocs)
		}
	})
}
