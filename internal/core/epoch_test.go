package core

import (
	"math/rand"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/knn"
)

// TestNextBindingMatchesBulkRebuild chains NextBinding through a random
// Insert/Remove workload and checks, at every epoch and for every method
// kind, that a session bound to the incrementally derived binding answers
// exactly like one bound to a bulk NewBinding of the same set — the
// churn-equivalence property at the core layer.
func TestNextBindingMatchesBulkRebuild(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 12, Cols: 12, Seed: 91})
	e := New(g)
	kinds := []MethodKind{INE, IERPHL, Gtree, ROAD}
	rng := rand.New(rand.NewSource(92))

	current := map[int32]bool{}
	initial := gen.Uniform(g, 0.05, 7)
	for _, v := range initial {
		current[v] = true
	}
	b := e.NewBinding(knn.NewObjectSet(g, initial), kinds)

	for step := 0; step < 40; step++ {
		var add, remove []int32
		for i := 0; i < 1+rng.Intn(3); i++ {
			v := int32(rng.Intn(g.NumVertices()))
			if current[v] {
				remove = append(remove, v)
				delete(current, v)
			} else {
				add = append(add, v)
				current[v] = true
			}
		}
		prev := b
		b = e.NextBinding(b, add, remove)
		if b == prev {
			t.Fatalf("step %d: non-empty delta returned the same binding", step)
		}
		if b.Epoch != prev.Epoch+1 {
			t.Fatalf("step %d: epoch %d after %d", step, b.Epoch, prev.Epoch)
		}

		var verts []int32
		for v := range current {
			verts = append(verts, v)
		}
		fresh := e.NewBinding(knn.NewObjectSet(g, verts), kinds)
		if b.Objs.Len() != fresh.Objs.Len() {
			t.Fatalf("step %d: %d objects, fresh has %d", step, b.Objs.Len(), fresh.Objs.Len())
		}
		q := int32(rng.Intn(g.NumVertices()))
		for _, kind := range kinds {
			inc, err := e.NewSession(kind, b)
			if err != nil {
				t.Fatal(err)
			}
			bulk, err := e.NewSession(kind, fresh)
			if err != nil {
				t.Fatal(err)
			}
			got := inc.KNN(q, 4)
			want := bulk.KNN(q, 4)
			if !knn.SameResults(got, want) {
				t.Fatalf("step %d %v q=%d: incremental %s bulk %s", step, kind, q,
					knn.FormatResults(got), knn.FormatResults(want))
			}
		}
	}
}

// TestNextBindingPinnedEpochUnchanged mutates through several epochs and
// checks the first epoch still answers from its original object set.
func TestNextBindingPinnedEpochUnchanged(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 10, Cols: 10, Seed: 93})
	e := New(g)
	kinds := []MethodKind{INE, IERPHL, Gtree, ROAD}
	initial := gen.Uniform(g, 0.1, 8)
	objs0 := knn.NewObjectSet(g, initial)
	b0 := e.NewBinding(objs0, kinds)

	q := int32(42)
	var before [][]knn.Result
	for _, kind := range kinds {
		s, err := e.NewSession(kind, b0)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, s.KNN(q, 5))
	}

	// Churn hard: remove every original object, add a disjoint set.
	b := b0
	for _, v := range objs0.Vertices() {
		b = e.NextBinding(b, []int32{(v + 1) % int32(g.NumVertices())}, []int32{v})
	}
	if b.Epoch == 0 {
		t.Fatal("churn did not advance the epoch")
	}

	for i, kind := range kinds {
		s, err := e.NewSession(kind, b0)
		if err != nil {
			t.Fatal(err)
		}
		after := s.KNN(q, 5)
		if !knn.SameResults(before[i], after) {
			t.Fatalf("%v: pinned epoch changed: %s -> %s", kind,
				knn.FormatResults(before[i]), knn.FormatResults(after))
		}
	}

	// The no-op delta returns the same binding.
	if e.NextBinding(b, nil, nil) != b {
		t.Fatal("empty delta produced a new epoch")
	}
}
