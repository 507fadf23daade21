package rnknn

import (
	"context"
	"testing"

	"rnknn/internal/gen"
)

// TestKNNPinned proves the epoch stamp is read from the binding the search
// ran on: quiescent queries report the live epoch and KNN-identical
// results, and the stamp tracks every set-changing mutation.
func TestKNNPinned(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "pin", Rows: 12, Cols: 14, Seed: 9})
	objs := gen.Uniform(g, 0.05, 7)
	db, err := Open(g, WithMethods(INE, Gtree), WithObjects(DefaultCategory, objs))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := int32(g.NumVertices() / 3)

	prev := uint64(0)
	for step := 0; step < 4; step++ {
		want, err := db.KNN(ctx, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, epoch, err := db.KNNPinned(ctx, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !SameResults(got, want) {
			t.Fatalf("step %d: KNNPinned %v != KNN %v", step, FormatResults(got), FormatResults(want))
		}
		live, err := db.Epoch(DefaultCategory)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != live {
			t.Fatalf("step %d: pinned epoch %d, live epoch %d", step, epoch, live)
		}
		if step > 0 && live <= prev {
			t.Fatalf("step %d: live epoch %d did not advance past %d", step, live, prev)
		}
		prev = live
		// A set-changing mutation must advance the next stamp: inserting an
		// absent vertex (or removing then re-inserting a present one) bumps
		// the epoch at least once.
		v := int32((step*37 + 1) % g.NumVertices())
		if err := db.RemoveObjects(DefaultCategory, []int32{v}); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertObjects(DefaultCategory, []int32{v}); err != nil {
			t.Fatal(err)
		}
	}
}
