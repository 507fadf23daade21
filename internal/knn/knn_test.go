package knn_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return gen.Network(gen.NetworkSpec{Name: "t", Rows: 12, Cols: 12, Seed: 131})
}

func TestObjectSetBasics(t *testing.T) {
	g := testGraph(t)
	objs := knn.NewObjectSet(g, []int32{9, 3, 3, 7})
	if objs.Len() != 3 {
		t.Fatalf("Len = %d, want deduplicated 3", objs.Len())
	}
	vs := objs.Vertices()
	if vs[0] != 3 || vs[1] != 7 || vs[2] != 9 {
		t.Fatalf("Vertices = %v, want sorted", vs)
	}
	if !objs.Contains(7) || objs.Contains(8) {
		t.Fatal("Contains wrong")
	}
	if objs.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestBruteForceOrderedAndComplete(t *testing.T) {
	g := testGraph(t)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 1))
	res := knn.BruteForce(g, objs, 0, 5)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Dist > res[i].Dist {
			t.Fatal("results not ordered")
		}
	}
	// k beyond |O| returns all objects.
	small := knn.NewObjectSet(g, []int32{1, 2})
	if got := knn.BruteForce(g, small, 0, 9); len(got) != 2 {
		t.Fatalf("got %d, want 2", len(got))
	}
}

func TestSameResultsExactMatch(t *testing.T) {
	a := []knn.Result{{1, 10}, {2, 20}}
	b := []knn.Result{{1, 10}, {2, 20}}
	if !knn.SameResults(a, b) {
		t.Fatal("identical results must match")
	}
	if knn.SameResults(a, b[:1]) {
		t.Fatal("length mismatch must fail")
	}
	if knn.SameResults(a, []knn.Result{{1, 10}, {2, 21}}) {
		t.Fatal("distance mismatch must fail")
	}
}

func TestSameResultsTieReordering(t *testing.T) {
	a := []knn.Result{{1, 10}, {2, 10}, {3, 20}}
	b := []knn.Result{{2, 10}, {1, 10}, {3, 20}}
	if !knn.SameResults(a, b) {
		t.Fatal("tie reordering within a group must match")
	}
	// A different vertex in a non-final tie group must fail.
	c := []knn.Result{{1, 10}, {9, 10}, {3, 20}}
	if knn.SameResults(a, c) {
		t.Fatal("different vertex in non-final group must fail")
	}
	// The final (kth) group is exempt: any choice among equal distances.
	d := []knn.Result{{1, 10}, {2, 10}, {99, 20}}
	if !knn.SameResults(a, d) {
		t.Fatal("final-group tie substitution must match")
	}
}

// tieGraph has vertices 4 and 8 both at distance 3 from vertex 0, and
// vertex 1 at distance 1.
func tieGraph() *graph.Graph {
	b := graph.NewBuilder(9, make([]float64, 9), make([]float64, 9))
	b.AddEdge(0, 4, 3, 3)
	b.AddEdge(0, 8, 3, 3)
	for v := int32(0); v < 7; v++ {
		if v != 3 {
			b.AddEdge(v, v+1, 1, 1)
		}
	}
	return b.Build("ties")
}

// TestLastGroupRepeatsFail pins that an answer naming one vertex twice at
// the k-th distance is wrong, whichever side holds the repeat.
func TestLastGroupRepeatsFail(t *testing.T) {
	g := tieGraph()
	objs := knn.NewObjectSet(g, []int32{1, 4, 8})
	want := []knn.Result{{1, 1}, {4, 3}, {8, 3}}
	dup := []knn.Result{{1, 1}, {4, 3}, {4, 3}}
	if knn.SameResults(dup, want) || knn.SameResults(want, dup) {
		t.Fatal("SameResults accepts a repeated vertex in the last group")
	}
	if knn.CheckAnswer(g, objs, 0, dup, want) == nil {
		t.Fatal("CheckAnswer accepts a repeated vertex in the last group")
	}
	if err := knn.CheckAnswer(g, objs, 0, want, knn.BruteForce(g, objs, 0, 3)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckAnswerReadsTies pins what only the graph tells: a last-group
// vertex the reference does not name is right when it is an object at that
// distance, and wrong otherwise, though SameResults accepts both.
func TestCheckAnswerReadsTies(t *testing.T) {
	g := tieGraph()
	got, want := []knn.Result{{8, 3}}, []knn.Result{{4, 3}}
	if !knn.SameResults(got, want) {
		t.Fatal("SameResults must not compare the last group's vertices")
	}
	if err := knn.CheckAnswer(g, knn.NewObjectSet(g, []int32{4, 8}), 0, got, want); err != nil {
		t.Fatalf("object 8 ties with 4 at distance 3: %v", err)
	}
	if knn.CheckAnswer(g, knn.NewObjectSet(g, []int32{4}), 0, got, want) == nil {
		t.Fatal("CheckAnswer accepts vertex 8, which is no object")
	}
	if knn.CheckAnswer(g, knn.NewObjectSet(g, []int32{4, 7}), 0, []knn.Result{{7, 3}}, want) == nil {
		t.Fatal("CheckAnswer accepts object 7, which is at distance 6")
	}
}

func TestSameResultsReflexiveProperty(t *testing.T) {
	f := func(dists []uint16) bool {
		rs := make([]knn.Result, len(dists))
		prev := graph.Dist(0)
		for i, d := range dists {
			prev += graph.Dist(d % 100)
			rs[i] = knn.Result{Vertex: int32(i), Dist: prev}
		}
		return knn.SameResults(rs, rs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormatResults(t *testing.T) {
	s := knn.FormatResults([]knn.Result{{5, 100}, {7, 200}})
	if !strings.Contains(s, "5:100") || !strings.Contains(s, "7:200") {
		t.Fatalf("format %q", s)
	}
	if knn.FormatResults(nil) != "[]" {
		t.Fatal("empty format")
	}
}

// TestObjectSetWithDelta checks the persistent-update form: the derived set
// must equal a from-scratch build, the original must be untouched, and the
// returned effective deltas must reflect only real changes.
func TestObjectSetWithDelta(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 8, Cols: 8, Seed: 61})
	base := knn.NewObjectSet(g, []int32{2, 5, 9, 30})

	next, added, removed := base.WithDelta([]int32{7, 5, 7, 11}, []int32{9, 99})
	if want := []int32{7, 11}; !int32sEqual(added, want) {
		t.Fatalf("added = %v, want %v", added, want)
	}
	if want := []int32{9}; !int32sEqual(removed, want) {
		t.Fatalf("removed = %v, want %v", removed, want)
	}
	fresh := knn.NewObjectSet(g, []int32{2, 5, 30, 7, 11})
	if !int32sEqual(next.Vertices(), fresh.Vertices()) {
		t.Fatalf("next = %v, fresh = %v", next.Vertices(), fresh.Vertices())
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if next.Contains(v) != fresh.Contains(v) {
			t.Fatalf("membership mismatch at %d", v)
		}
	}
	// The original is untouched.
	if !int32sEqual(base.Vertices(), []int32{2, 5, 9, 30}) || !base.Contains(9) || base.Contains(7) {
		t.Fatalf("base mutated: %v", base.Vertices())
	}

	// Remove-and-re-add in one delta keeps the vertex exactly once.
	rr, added, removed := base.WithDelta([]int32{5}, []int32{5})
	if len(added) != 1 || len(removed) != 1 {
		t.Fatalf("re-add deltas: added %v removed %v", added, removed)
	}
	if !int32sEqual(rr.Vertices(), base.Vertices()) {
		t.Fatalf("re-add changed the set: %v", rr.Vertices())
	}

	// Empty effective delta.
	same, added, removed := base.WithDelta([]int32{2}, []int32{50})
	if len(added) != 0 || len(removed) != 0 {
		t.Fatalf("no-op deltas: added %v removed %v", added, removed)
	}
	if !int32sEqual(same.Vertices(), base.Vertices()) {
		t.Fatal("no-op delta changed the set")
	}

	// Len and Vertices follow the effective delta, not the requested one.
	for _, c := range []struct {
		name        string
		add, remove []int32
		want        []int32
	}{
		{"remove absent", nil, []int32{1, 7, 63}, []int32{2, 5, 9, 30}},
		{"add present", []int32{2, 30, 30}, nil, []int32{2, 5, 9, 30}},
		{"remove and re-add", []int32{9}, []int32{9, 9}, []int32{2, 5, 9, 30}},
		{"remove and re-add with a change", []int32{9, 0, 63}, []int32{9, 2}, []int32{0, 5, 9, 30, 63}},
		{"empty", []int32{}, []int32{30, 9, 5, 2, 2}, []int32{}},
	} {
		next, _, _ := base.WithDelta(c.add, c.remove)
		if next.Len() != len(c.want) || !int32sEqual(next.Vertices(), c.want) {
			t.Errorf("%s: Len %d, Vertices %v, want %v", c.name, next.Len(), next.Vertices(), c.want)
		}
	}
	if base.Len() != 4 || !int32sEqual(base.Vertices(), []int32{2, 5, 9, 30}) {
		t.Fatalf("base mutated: Len %d, %v", base.Len(), base.Vertices())
	}
	// The emptied set derives again like any other.
	empty, _, _ := base.WithDelta(nil, base.Vertices())
	refill, _, _ := empty.WithDelta([]int32{4, 4}, []int32{4})
	if empty.Len() != 0 || len(empty.Vertices()) != 0 || refill.Len() != 1 || !int32sEqual(refill.Vertices(), []int32{4}) {
		t.Fatalf("emptied then refilled: %d %v, %d %v", empty.Len(), empty.Vertices(), refill.Len(), refill.Vertices())
	}
}

// TestObjectSetWithDeltaRandom checks WithDelta against a from-scratch
// build over seeded random deltas: removals of present and absent vertices,
// additions of present and absent ones with duplicates, vertices removed and
// re-added in one delta, and runs of removals and additions at both ends of
// the sorted set.
func TestObjectSetWithDeltaRandom(t *testing.T) {
	g := testGraph(t)
	n := int32(g.NumVertices())
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		var base []int32
		for v := int32(0); v < n; v++ {
			if rng.Intn(4) == 0 {
				base = append(base, v)
			}
		}
		o := knn.NewObjectSet(g, base)
		verts := slices.Clone(o.Vertices())
		var add, remove []int32
		for i := rng.Intn(8); i > 0; i-- {
			remove = append(remove, int32(rng.Intn(int(n))))
		}
		for i := rng.Intn(8); i > 0; i-- {
			add = append(add, int32(rng.Intn(int(n))))
		}
		switch rng.Intn(4) {
		case 0: // runs at both ends
			if len(verts) > 3 {
				remove = append(remove, verts[:3]...)
				remove = append(remove, verts[len(verts)-3:]...)
			}
			add = append(add, 0, 1, n-2, n-1)
		case 1: // re-adds
			if len(verts) > 0 {
				v := verts[rng.Intn(len(verts))]
				remove, add = append(remove, v), append(add, v, v)
			}
		case 2: // everything out
			remove = append(remove, verts...)
		}

		next, added, removed := o.WithDelta(add, remove)
		want := map[int32]bool{}
		for _, v := range verts {
			want[v] = true
		}
		var wantRemoved, wantAdded []int32
		for _, v := range remove {
			if want[v] {
				delete(want, v)
				wantRemoved = append(wantRemoved, v)
			}
		}
		for _, v := range add {
			if !want[v] {
				want[v] = true
				wantAdded = append(wantAdded, v)
			}
		}
		slices.Sort(wantRemoved)
		slices.Sort(wantAdded)
		wantSet := make([]int32, 0, len(want))
		for v := range want {
			wantSet = append(wantSet, v)
		}
		fresh := knn.NewObjectSet(g, wantSet)
		if !slices.Equal(next.Vertices(), fresh.Vertices()) {
			t.Fatalf("trial %d: add %v remove %v: got %v, want %v", trial, add, remove, next.Vertices(), fresh.Vertices())
		}
		for v := int32(0); v < n; v++ {
			if next.Contains(v) != fresh.Contains(v) {
				t.Fatalf("trial %d: membership of %d: got %v", trial, v, next.Contains(v))
			}
		}
		if !slices.Equal(added, wantAdded) || !slices.Equal(removed, wantRemoved) {
			t.Fatalf("trial %d: effective delta added %v removed %v, want %v and %v", trial, added, removed, wantAdded, wantRemoved)
		}
		if !slices.Equal(o.Vertices(), verts) || len(verts) != len(base) {
			t.Fatalf("trial %d: the original set changed", trial)
		}
	}
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
