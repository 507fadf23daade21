package core

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/knn"
)

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

// TestEveryGenerationPersists derives 240 generations by random inserts
// and removals, keeping every one, and only afterwards checks each: its
// object set's vertices and, for every kind, answers from several query
// vertices against brute force over that generation's own set. Deriving
// shares structure between generations (membership pages, R-tree nodes),
// so a derivation that wrote into a predecessor shows up here as a wrong
// answer in an older generation. The newest R-tree must also stay within
// twice the nodes of a bulk load of its set.
func TestEveryGenerationPersists(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 16, Cols: 16, Seed: 95})
	e := New(g)
	kinds := []MethodKind{INE, IERPHL, Gtree, ROAD}
	rng := rand.New(rand.NewSource(96))
	type generation struct {
		b    *Binding
		want []int32
	}
	current := map[int32]bool{}
	for _, v := range gen.Uniform(g, 0.2, 9) {
		current[v] = true
	}
	sorted := func() []int32 {
		vs := slices.Collect(maps.Keys(current))
		slices.Sort(vs)
		return vs
	}
	gens := []generation{{e.NewBinding(knn.NewObjectSet(g, sorted()), kinds), sorted()}}
	for len(gens) < 240 {
		var add, remove []int32
		for range 1 + rng.Intn(6) {
			v := int32(rng.Intn(g.NumVertices()))
			if current[v] {
				remove = append(remove, v)
				delete(current, v)
			} else {
				add = append(add, v)
				current[v] = true
			}
		}
		if b := e.NextBinding(gens[len(gens)-1].b, add, remove); b != gens[len(gens)-1].b {
			gens = append(gens, generation{b, sorted()})
		}
	}
	queries := gen.QueryVertices(g, 3, 97)
	for i, gn := range gens {
		if got := gn.b.Objs.Vertices(); !slices.Equal(got, gn.want) {
			t.Fatalf("generation %d: vertices %v, want %v", i, got, gn.want)
		}
		for _, kind := range kinds {
			s, err := e.NewSession(kind, gn.b)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				got := s.KNN(q, 6)
				if want := knn.BruteForce(g, gn.b.Objs, q, 6); !knn.SameResults(got, want) {
					t.Fatalf("generation %d %v q=%d: got %s want %s", i, kind, q, knn.FormatResults(got), knn.FormatResults(want))
				}
			}
		}
	}
	last := gens[len(gens)-1].b
	bulk := e.NewBinding(last.Objs, kinds)
	t.Logf("newest R-tree: %d nodes, %d rebuilds; bulk load: %d nodes", last.rt.Nodes(), last.rt.Rebuilds(), bulk.rt.Nodes())
	if last.rt.Nodes() > 2*bulk.rt.Nodes() {
		t.Fatalf("newest R-tree has %d nodes, a bulk load of its set %d", last.rt.Nodes(), bulk.rt.Nodes())
	}
}
