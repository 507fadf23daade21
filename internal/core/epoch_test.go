package core

import (
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
	t.Logf("newest R-tree: %d nodes, %d rebuilds; bulk load: %d nodes", last.tree().Nodes(), last.tree().Rebuilds(), bulk.tree().Nodes())
	if last.tree().Nodes() > 2*bulk.tree().Nodes() {
		t.Fatalf("newest R-tree has %d nodes, a bulk load of its set %d", last.tree().Nodes(), bulk.tree().Nodes())
	}
}

// TestDerivationsMatchBruteForce walks 64 seeded mutation histories of 60
// epochs and reads two epochs in three, so an index is derived from a base
// up to several epochs old through a composed delta: steps that insert and
// remove at once (a vertex removed and re-added is in both lists), that
// undo the previous insert, and that remove most of the set, which drops
// the base for a bulk build. Every read checks each kind's answers from
// several query vertices against brute force, and the R-tree's and the
// occurrence list's object counts against the set's.
func TestDerivationsMatchBruteForce(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 10, Cols: 10, Seed: 98})
	e := New(g)
	kinds := []MethodKind{IERPHL, Gtree, ROAD}
	n := int32(g.NumVertices())
	for seed := range int64(64) {
		b := e.NewBinding(knn.NewObjectSet(g, gen.Uniform(g, 0.15, 99)), kinds)
		rng := rand.New(rand.NewSource(seed))
		for range 60 {
			add, remove := randomDelta(rng, b, n)
			b = e.NextBinding(b, add, remove)
			if rng.Intn(3) == 0 {
				continue
			}
			// An index holding a vertex twice, or missing one, may still
			// answer these queries right; its count cannot.
			if rt, ol := b.tree().Len(), b.occurrences().Count(0); rt != b.Objs.Len() || int(ol) != b.Objs.Len() {
				t.Fatalf("seed %d epoch %d: %d objects, R-tree holds %d, occurrence list %d", seed, b.Epoch, b.Objs.Len(), rt, ol)
			}
			for _, kind := range kinds {
				s, err := e.NewSession(kind, b)
				if err != nil {
					t.Fatal(err)
				}
				for q := int32(0); q < n; q += 11 {
					if err := knn.CheckAnswer(g, b.Objs, q, s.KNN(q, 4), knn.BruteForce(g, b.Objs, q, 4)); err != nil {
						t.Fatalf("seed %d epoch %d %v q=%d: %v", seed, b.Epoch, kind, q, err)
					}
				}
			}
		}
	}
}

// randomDelta draws the next mutation of b's set: one in twenty removes
// three quarters of it, one in five undoes b's inserts, three in twenty
// remove an object and re-add it in the same step (it is in both lists)
// beside one random insert, and the rest insert and remove one to three
// random vertices of n at once.
func randomDelta(rng *rand.Rand, b *Binding, n int32) (add, remove []int32) {
	switch r := rng.Intn(20); {
	case r == 0:
		return nil, b.Objs.Vertices()[:b.Objs.Len()*3/4]
	case r < 5 && len(b.step.added) > 0:
		return nil, b.step.added
	case r < 8 && b.Objs.Len() > 0:
		v := b.Objs.Vertices()[rng.Intn(b.Objs.Len())]
		return []int32{v, rng.Int31n(n)}, []int32{v}
	}
	for range 1 + rng.Intn(3) {
		add = append(add, rng.Int31n(n))
		remove = append(remove, rng.Int31n(n))
	}
	return add, remove
}

// TestFirstReadsDeriveOnce runs readers that make the first reads of every
// kind's index at freshly published epochs while a writer keeps mutating:
// the writer publishes an epoch, waits until a reader has picked it up and
// derives the next one while the readers, all spinning on the newest epoch,
// race to derive its pending indexes (through Rebind, or NewSession for one
// read in eight); one epoch in three is left unread, so its successor
// composes two deltas. The steps are randomDelta's. Every answer must pass
// knn.CheckAnswer against brute force over the object set of the epoch it
// read, and every pending index must have been derived exactly once.
func TestFirstReadsDeriveOnce(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 10, Cols: 10, Seed: 98})
	e := New(g)
	kinds := Kinds()
	n := int32(g.NumVertices())
	b0 := e.NewBinding(knn.NewObjectSet(g, gen.Uniform(g, 0.15, 99)), kinds)
	const epochs = 300
	var live atomic.Pointer[Binding]
	var seen atomic.Uint64 // the newest epoch a reader has picked up
	live.Store(b0)
	published := []*Binding{b0} // the writer's; read after the wait
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rng := rand.New(rand.NewSource(100))
		b := b0
		for len(published) < epochs && !done.Load() {
			add, remove := randomDelta(rng, b, n)
			next := e.NextBinding(b, add, remove)
			if next == b {
				continue
			}
			b = next
			published = append(published, b)
			live.Store(b)
			for read := rng.Intn(3) != 0; read && seen.Load() < b.Epoch && !done.Load(); {
				runtime.Gosched()
			}
		}
	}()
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			sessions := make([]Session, len(kinds))
			for i, kind := range kinds {
				var err error
				if sessions[i], err = e.NewSession(kind, b0); err != nil {
					t.Error(err)
					done.Store(true)
					return
				}
			}
			for !done.Load() {
				b := live.Load()
				for s := seen.Load(); s < b.Epoch && !seen.CompareAndSwap(s, b.Epoch); s = seen.Load() {
				}
				for i, kind := range kinds {
					s := sessions[i]
					if rng.Intn(8) == 0 {
						var err error
						if s, err = e.NewSession(kind, b); err != nil {
							t.Error(err)
							done.Store(true)
							return
						}
					} else {
						s.Rebind(b)
					}
					q, k := rng.Int31n(n), 1+rng.Intn(4)
					if err := knn.CheckAnswer(g, b.Objs, q, s.KNN(q, k), knn.BruteForce(g, b.Objs, q, k)); err != nil {
						t.Errorf("epoch %d %v q=%d k=%d: %v", b.Epoch, kind, q, k, err)
						done.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	derived := 0
	for _, b := range published {
		pending := 0
		for _, built := range []bool{
			b.rt.delta != nil && b.rt.ready.Load() != nil,
			b.ol.delta != nil && b.ol.ready.Load() != nil,
			b.ad.delta != nil && b.ad.ready.Load() != nil,
		} {
			if built {
				pending++
			}
		}
		if int(b.derivations) != pending {
			t.Fatalf("epoch %d: %d derivations for %d pending indexes", b.Epoch, b.derivations, pending)
		}
		derived += pending
	}
	t.Logf("%d epochs, %d indexes derived on first read", len(published), derived)
	if derived < len(published)/2 {
		t.Fatalf("readers derived only %d indexes over %d epochs", derived, len(published))
	}
}
