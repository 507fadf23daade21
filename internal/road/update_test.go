package road_test

import (
	"math/rand"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/knn"
	"rnknn/internal/road"
)

// derive applies one delta the way core.NextBinding does: the next object
// set by WithDelta, the next directory by Next over that set and the
// effective delta.
func derive(idx *road.Index, objs *knn.ObjectSet, ad *road.AssociationDirectory, add, remove []int32) (*knn.ObjectSet, *road.AssociationDirectory) {
	next, added, removed := objs.WithDelta(add, remove)
	return &next, ad.Next(idx, &next, added, removed)
}

// checkDirectory compares ad bit for bit — every Rnet's occupancy, every
// vertex's membership — with a from-scratch build over objs.
func checkDirectory(t *testing.T, idx *road.Index, ad *road.AssociationDirectory, objs *knn.ObjectSet, when string) {
	t.Helper()
	fresh := idx.NewAssociationDirectory(objs)
	for ni := range idx.PT.Nodes {
		if got, want := ad.HasObjects(int32(ni)), fresh.HasObjects(int32(ni)); got != want {
			t.Fatalf("%s: Rnet %d occupied = %v, from-scratch build says %v", when, ni, got, want)
		}
	}
	for v := int32(0); v < int32(idx.G.NumVertices()); v++ {
		if ad.IsObject(v) != objs.Contains(v) {
			t.Fatalf("%s: IsObject(%d) = %v, set says %v", when, v, ad.IsObject(v), objs.Contains(v))
		}
	}
}

func checkKNN(t *testing.T, idx *road.Index, ad *road.AssociationDirectory, objs *knn.ObjectSet, q int32, when string) {
	t.Helper()
	got := road.NewKNN(idx, ad).KNN(q, 5)
	if want := knn.BruteForce(idx.G, objs, q, 5); knn.CheckAnswer(idx.G, objs, q, got, want) != nil {
		t.Fatalf("%s q=%d: got %s want %s", when, q, knn.FormatResults(got), knn.FormatResults(want))
	}
}

// TestAssociationDirectoryUpdates drives random insert/remove deltas through
// ObjectSet.WithDelta + Next and, after every step, compares the derived
// directory with a from-scratch build, its kNN answers with brute force, and
// the previous epoch's directory with its own set (copy-on-write).
func TestAssociationDirectoryUpdates(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 14, Cols: 14, Seed: 151})
	idx := buildLevels(g, 4)
	rng := rand.New(rand.NewSource(2))
	n := g.NumVertices()

	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.01, 6))
	ad := idx.NewAssociationDirectory(objs)
	for step := 0; step < 120; step++ {
		// One to three vertices per delta, flipped: present ones leave,
		// absent ones join. Late steps only remove, so the set drains to
		// (nearly) empty and Rnets of every level lose their last object.
		var add, remove []int32
		for i := rng.Intn(3); i >= 0; i-- {
			v := int32(rng.Intn(n))
			if step >= 80 && objs.Len() > 0 {
				v = objs.Vertices()[rng.Intn(objs.Len())]
			}
			if objs.Contains(v) {
				remove = append(remove, v)
			} else {
				add = append(add, v)
			}
		}
		prevObjs, prevAD := objs, ad
		objs, ad = derive(idx, objs, ad, add, remove)
		checkDirectory(t, idx, ad, objs, "after the step")
		checkDirectory(t, idx, prevAD, prevObjs, "previous epoch")
		q := int32(rng.Intn(n))
		checkKNN(t, idx, ad, objs, q, "after the step")
		checkKNN(t, idx, prevAD, prevObjs, q, "previous epoch")
	}
}

// TestAssociationDirectoryAddRemoveCycle empties the hierarchy one level at a
// time — the last object of a leaf Rnet, then of a whole top-level Rnet, then
// of the network — and fills it again, with no counts to lean on.
func TestAssociationDirectoryAddRemoveCycle(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 8, Cols: 8, Seed: 152})
	idx := buildLevels(g, 3)
	pt := idx.PT
	top := pt.Nodes[0].Children
	// a and b share the first top-level Rnet but not a leaf; c lives in
	// another top-level Rnet.
	a := pt.Nodes[top[0]].Vertices[0]
	b := int32(-1)
	for _, v := range pt.Nodes[top[0]].Vertices {
		if pt.LeafOf[v] != pt.LeafOf[a] {
			b = v
			break
		}
	}
	c := pt.Nodes[top[1]].Vertices[0]
	if b < 0 {
		t.Fatal("top-level Rnet has a single leaf; pick another network")
	}

	objs := knn.NewObjectSet(g, []int32{a, b, c})
	ad := idx.NewAssociationDirectory(objs)
	full, fullObjs := ad, objs

	objs, ad = derive(idx, objs, ad, nil, []int32{a})
	checkDirectory(t, idx, ad, objs, "leaf Rnet emptied")
	if ad.HasObjects(pt.LeafOf[a]) || !ad.HasObjects(top[0]) {
		t.Fatalf("after removing %d: leaf occupied = %v, its top-level Rnet occupied = %v, want false and true",
			a, ad.HasObjects(pt.LeafOf[a]), ad.HasObjects(top[0]))
	}
	objs, ad = derive(idx, objs, ad, nil, []int32{b})
	checkDirectory(t, idx, ad, objs, "top-level Rnet emptied")
	if ad.HasObjects(top[0]) || !ad.HasObjects(top[1]) || !ad.HasObjects(0) {
		t.Fatal("emptying one top-level Rnet must clear it and nothing beside it")
	}
	checkKNN(t, idx, ad, objs, a, "top-level Rnet emptied")
	objs, ad = derive(idx, objs, ad, nil, []int32{c})
	for ni := range pt.Nodes {
		if ad.HasObjects(int32(ni)) {
			t.Fatalf("empty set: Rnet %d still marked occupied", ni)
		}
	}
	// Back in, the removed-and-re-added vertex in one delta included.
	objs, ad = derive(idx, objs, ad, []int32{a, b}, nil)
	objs, ad = derive(idx, objs, ad, []int32{c, a}, []int32{a})
	checkDirectory(t, idx, ad, objs, "refilled")
	checkKNN(t, idx, ad, objs, c, "refilled")
	// The first epoch never saw any of it.
	checkDirectory(t, idx, full, fullObjs, "first epoch")
	checkKNN(t, idx, full, fullObjs, c, "first epoch")
}
