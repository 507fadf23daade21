package gtree_test

import (
	"math/rand"
	"slices"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/gtree"
	"rnknn/internal/knn"
)

// derive applies one delta the way core.NextBinding does: the next object
// set by WithDelta, the next list by Next over that set and the effective
// delta.
func derive(idx *gtree.Index, objs *knn.ObjectSet, ol *gtree.OccurrenceList, add, remove []int32) (*knn.ObjectSet, *gtree.OccurrenceList) {
	next, added, removed := objs.WithDelta(add, remove)
	return &next, ol.Next(idx, &next, added, removed)
}

// checkList compares ol with a from-scratch build over objs: every node's
// count, the occupied children the search derives from the counts, and
// every CSR leaf list — exactly, since both keep each leaf's objects
// ascending, and empty for inner nodes — and every vertex's membership.
func checkList(t *testing.T, idx *gtree.Index, ol *gtree.OccurrenceList, objs *knn.ObjectSet, when string) {
	t.Helper()
	fresh := idx.NewOccurrenceList(objs)
	occupied := func(ol *gtree.OccurrenceList, ni int32) (out []int32) {
		for _, c := range idx.PT.Nodes[ni].Children {
			if ol.HasObjects(c) {
				out = append(out, c)
			}
		}
		return out
	}
	listed := 0
	for i := 0; i < idx.NumNodes(); i++ {
		ni := int32(i)
		if ol.Count(ni) != fresh.Count(ni) || ol.HasObjects(ni) != fresh.HasObjects(ni) {
			t.Fatalf("%s: node %d count %d, from-scratch build %d", when, ni, ol.Count(ni), fresh.Count(ni))
		}
		if got, want := occupied(ol, ni), occupied(fresh, ni); !slices.Equal(got, want) {
			t.Fatalf("%s: node %d occupied children %v, from-scratch build %v", when, ni, got, want)
		}
		got := ol.LeafObjects(ni)
		if want := fresh.LeafObjects(ni); !slices.Equal(got, want) {
			t.Fatalf("%s: leaf %d objects %v, from-scratch build %v", when, ni, got, want)
		}
		for j, v := range got {
			if !idx.PT.Nodes[ni].IsLeaf() || idx.PT.LeafOf[v] != ni || !objs.Contains(v) || (j > 0 && got[j-1] >= v) {
				t.Fatalf("%s: node %d lists %v, not its objects in ascending order", when, ni, got)
			}
		}
		listed += len(got)
	}
	if listed != objs.Len() {
		t.Fatalf("%s: the leaf lists hold %d objects, the set %d", when, listed, objs.Len())
	}
	for v := int32(0); v < int32(len(idx.PT.LeafOf)); v++ {
		if ol.IsObject(v) != objs.Contains(v) {
			t.Fatalf("%s: IsObject(%d) = %v, set says %v", when, v, ol.IsObject(v), objs.Contains(v))
		}
	}
}

func checkKNN(t *testing.T, idx *gtree.Index, ol *gtree.OccurrenceList, objs *knn.ObjectSet, q int32, when string) {
	t.Helper()
	got := gtree.NewKNN(idx, ol).KNN(q, 5)
	if want := knn.BruteForce(idx.G, objs, q, 5); knn.CheckAnswer(idx.G, objs, q, got, want) != nil {
		t.Fatalf("%s q=%d: got %s want %s", when, q, knn.FormatResults(got), knn.FormatResults(want))
	}
}

// TestOccurrenceListUpdates drives random insert/remove deltas through
// ObjectSet.WithDelta + Next and, after every step, compares the derived
// list with a from-scratch build, its kNN answers with brute force, and the
// previous epoch's list with its own set (Next never writes to it). The
// deltas come in four phases: one to three flips; up to 64 flips with some
// removed vertices re-added in the same delta, so touched leaves sit next
// to each other and the first and last leaf are touched; a leaf emptied and
// refilled; and removals only, so the set drains. The test fails unless
// each of those splice cases occurred.
func TestOccurrenceListUpdates(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 14, Cols: 14, Seed: 141})
	idx := buildTau(g, 32)
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	var leaves []int32
	for i := 0; i < idx.NumNodes(); i++ {
		if idx.PT.Nodes[i].IsLeaf() {
			leaves = append(leaves, int32(i))
		}
	}
	first, last := leaves[0], leaves[len(leaves)-1]
	var seen struct{ first, last, adjacent, readded, emptied, refilled bool }

	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.01, 5))
	ol := idx.NewOccurrenceList(objs)
	flip := func(v int32, add, remove *[]int32) {
		if objs.Contains(v) {
			*remove = append(*remove, v)
		} else {
			*add = append(*add, v)
		}
	}
	for step := 0; step < 200; step++ {
		var add, remove []int32
		switch leaf := leaves[step%len(leaves)]; {
		case step < 60:
			for i := rng.Intn(3); i >= 0; i-- {
				flip(int32(rng.Intn(n)), &add, &remove)
			}
		case step < 120:
			for i := rng.Intn(64); i >= 0; i-- {
				flip(int32(rng.Intn(n)), &add, &remove)
			}
			for _, v := range remove {
				if rng.Intn(4) == 0 {
					add = append(add, v)
				}
			}
		case step < 160 && step%2 == 0:
			// Empty one leaf; the next step refills it whole.
			remove = slices.Clone(ol.LeafObjects(leaf))
		case step < 160:
			add = slices.Clone(idx.PT.Nodes[leaves[(step-1)%len(leaves)]].Vertices)
		default:
			for i := rng.Intn(3); i >= 0 && objs.Len() > 0; i-- {
				remove = append(remove, objs.Vertices()[rng.Intn(objs.Len())])
			}
		}
		prevObjs, prevOL := objs, ol
		next, added, removed := prevObjs.WithDelta(add, remove)
		objs = &next
		ol = prevOL.Next(idx, objs, added, removed)

		touched := map[int32]bool{}
		for _, v := range slices.Concat(added, removed) {
			touched[idx.PT.LeafOf[v]] = true
		}
		for _, v := range added {
			seen.readded = seen.readded || slices.Contains(removed, v)
		}
		seen.first = seen.first || touched[first]
		seen.last = seen.last || touched[last]
		for i := 1; i < len(leaves); i++ {
			seen.adjacent = seen.adjacent || touched[leaves[i-1]] && touched[leaves[i]] && leaves[i] == leaves[i-1]+1
		}
		for l := range touched {
			seen.emptied = seen.emptied || len(prevOL.LeafObjects(l)) > 0 && len(ol.LeafObjects(l)) == 0
			seen.refilled = seen.refilled || len(prevOL.LeafObjects(l)) == 0 && len(ol.LeafObjects(l)) == len(idx.PT.Nodes[l].Vertices)
		}

		checkList(t, idx, ol, objs, "after the step")
		checkList(t, idx, prevOL, prevObjs, "previous epoch")
		q := int32(rng.Intn(n))
		checkKNN(t, idx, ol, objs, q, "after the step")
		checkKNN(t, idx, prevOL, prevObjs, q, "previous epoch")
	}
	if !seen.first || !seen.last || !seen.adjacent || !seen.readded || !seen.emptied || !seen.refilled {
		t.Fatalf("a splice case never occurred: %+v", seen)
	}
}

// TestOccurrenceListAddIdempotent: the list keeps no membership of its own,
// so idempotency is the effective delta's — a vertex named twice, one already
// present, or an absent one removed must not move a count.
func TestOccurrenceListAddIdempotent(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 8, Cols: 8, Seed: 142})
	idx := buildTau(g, 16)
	objs := knn.NewObjectSet(g, []int32{3})
	ol := idx.NewOccurrenceList(objs)
	objs, ol = derive(idx, objs, ol, []int32{3, 7, 7}, []int32{60})
	if ol.Count(0) != 2 {
		t.Fatalf("adding {3 (present), 7, 7} and removing an absent vertex left %d objects, want 2", ol.Count(0))
	}
	// Removed and re-added in one delta: still there, once.
	objs, ol = derive(idx, objs, ol, []int32{7}, []int32{7, 3})
	checkList(t, idx, ol, objs, "remove+re-add")
	if ol.Count(0) != 1 || !ol.IsObject(7) || ol.IsObject(3) {
		t.Fatalf("after removing {7, 3} and re-adding 7: count %d", ol.Count(0))
	}
}
