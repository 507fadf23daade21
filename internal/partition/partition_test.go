package partition_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/partition"
	"rnknn/internal/snapio"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return gen.Network(gen.NetworkSpec{Name: "t", Rows: 20, Cols: 20, Seed: 12})
}

func TestBuildCoversAllVerticesOnce(t *testing.T) {
	g := testGraph(t)
	tr := partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: 30})
	seen := make([]int, g.NumVertices())
	for _, li := range tr.Leaves() {
		for _, v := range tr.Nodes[li].Vertices {
			seen[v]++
		}
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("vertex %d in %d leaves", v, c)
		}
	}
}

func TestLeafSizeRespected(t *testing.T) {
	g := testGraph(t)
	tr := partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: 25})
	for _, li := range tr.Leaves() {
		n := len(tr.Nodes[li].Vertices)
		if n > 25 {
			t.Fatalf("leaf with %d > 25 vertices", n)
		}
		if n == 0 {
			t.Fatal("empty leaf")
		}
	}
}

// TestByLevelIsStableLevelOrder checks ByLevel against a stable sort of the
// node indexes by level, on a leaf-size tree and a level-capped one.
func TestByLevelIsStableLevelOrder(t *testing.T) {
	g := testGraph(t)
	for _, opts := range []partition.Options{{Fanout: 4, MaxLeafSize: 16}, {Fanout: 4, MaxLevels: 4}} {
		tr := partition.Build(g, opts)
		want := make([]int32, len(tr.Nodes))
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool { return tr.Nodes[want[a]].Level < tr.Nodes[want[b]].Level })
		if got := tr.ByLevel(); !slices.Equal(got, want) {
			t.Fatalf("%+v: ByLevel = %v, want %v", opts, got, want)
		}
	}
}

// TestBordersMatchDefinition checks Borders against the definition it
// scans for: the vertices of node N, in ascending order, with a neighbor
// outside N.
func TestBordersMatchDefinition(t *testing.T) {
	g := testGraph(t)
	for _, opts := range []partition.Options{{Fanout: 4, MaxLeafSize: 16}, {Fanout: 4, MaxLevels: 4}} {
		tr := partition.Build(g, opts)
		got := tr.Borders(g)
		for ni := range tr.Nodes {
			var want []int32
			for _, u := range tr.Nodes[ni].Vertices {
				ts, _ := g.Neighbors(u)
				if slices.ContainsFunc(ts, func(v int32) bool { return !tr.Contains(int32(ni), v) }) {
					want = append(want, u)
				}
			}
			if !slices.Equal(got[ni], want) {
				t.Fatalf("%+v: node %d borders = %v, want %v", opts, ni, got[ni], want)
			}
		}
	}
}

func TestMaxLevelsRespected(t *testing.T) {
	g := testGraph(t)
	tr := partition.Build(g, partition.Options{Fanout: 2, MaxLevels: 3})
	if h := tr.Height(); h != 4 {
		t.Fatalf("height = %d, want 4 (levels 0..3)", h)
	}
}

func TestContainsAndPartOf(t *testing.T) {
	g := testGraph(t)
	tr := partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: 40})
	for v := int32(0); v < int32(g.NumVertices()); v += 17 {
		leaf := tr.LeafOf[v]
		if !tr.Nodes[leaf].IsLeaf() {
			t.Fatalf("LeafOf[%d] is not a leaf", v)
		}
		// v must be contained in every ancestor and in no sibling subtree.
		n := leaf
		for n != -1 {
			if !tr.Contains(n, v) {
				t.Fatalf("ancestor %d does not contain %d", n, v)
			}
			parent := tr.Nodes[n].Parent
			if parent != -1 {
				for _, sib := range tr.Nodes[parent].Children {
					if sib != n && tr.Contains(sib, v) {
						t.Fatalf("sibling %d also contains %d", sib, v)
					}
				}
			}
			n = parent
		}
		if tr.PartOf(v, 0) != 0 {
			t.Fatal("PartOf level 0 must be root")
		}
	}
}

func TestChildrenPartitionParent(t *testing.T) {
	g := testGraph(t)
	tr := partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: 40})
	for ni := range tr.Nodes {
		node := &tr.Nodes[ni]
		if node.IsLeaf() {
			continue
		}
		total := 0
		for _, c := range node.Children {
			total += len(tr.Nodes[c].Vertices)
		}
		if total != len(node.Vertices) {
			t.Fatalf("node %d: children cover %d of %d vertices", ni, total, len(node.Vertices))
		}
	}
}

func TestBalanceReasonable(t *testing.T) {
	g := testGraph(t)
	tr := partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: 40})
	root := tr.Nodes[0]
	for _, c := range root.Children {
		frac := float64(len(tr.Nodes[c].Vertices)) / float64(g.NumVertices())
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("root child holds %.2f of vertices", frac)
		}
	}
}

func TestRefinementReducesOrKeepsCut(t *testing.T) {
	g := testGraph(t)
	noRefine := partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: 40, RefinePasses: -1})
	refined := partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: 40, RefinePasses: 3})
	if refined.CutEdges(g) > noRefine.CutEdges(g) {
		t.Fatalf("refinement increased cut: %d > %d", refined.CutEdges(g), noRefine.CutEdges(g))
	}
}

func TestExtractCSR(t *testing.T) {
	g := testGraph(t)
	tr := partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: 30})
	leaf := tr.Leaves()[0]
	verts := tr.Nodes[leaf].Vertices
	off, tgt, w := partition.ExtractCSR(g, verts)
	if len(off) != len(verts)+1 {
		t.Fatal("offsets length")
	}
	// Every local edge must correspond to a real edge with matching weight.
	for li := 0; li < len(verts); li++ {
		for e := off[li]; e < off[li+1]; e++ {
			u, v := verts[li], verts[tgt[e]]
			gw, ok := g.EdgeWeightBetween(u, v)
			if !ok || gw != w[e] {
				t.Fatalf("local edge %d-%d weight %d mismatch (%d,%v)", u, v, w[e], gw, ok)
			}
		}
	}
	// Count of local directed edges must equal internal edges of the leaf.
	inLeaf := map[int32]bool{}
	for _, v := range verts {
		inLeaf[v] = true
	}
	wantEdges := int32(0)
	for _, u := range verts {
		ts, _ := g.Neighbors(u)
		for _, v := range ts {
			if inLeaf[v] {
				wantEdges++
			}
		}
	}
	if off[len(verts)] != wantEdges {
		t.Fatalf("extracted %d edges, want %d", off[len(verts)], wantEdges)
	}
}

// TestDecodeRejectsMalformedShape: Decode refuses, on the decoding and the
// aliasing path alike, a tree whose walks up or down might not terminate
// (a parent at or after its child, a level that does not follow the
// parent's, a child list the parent links disagree with), leaf-sequence
// ranges that do not nest as Build's do, and a node count the payload
// cannot back.
func TestDecodeRejectsMalformedShape(t *testing.T) {
	g := testGraph(t)
	good := partition.Build(g, partition.Options{Fanout: 4, MaxLeafSize: 30})
	encode := func(tr *partition.Tree) []byte {
		var buf bytes.Buffer
		w := snapio.NewWriter(&buf)
		partition.Encode(tr, w)
		if _, err := w.Result(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	decodes := func(data []byte) (ok [2]bool) {
		for i, alias := range []bool{false, true} {
			r := snapio.NewSource(data, alias)
			ok[i] = partition.Decode(r, g.NumVertices()) != nil && r.Err() == nil
		}
		return ok
	}
	if ok := decodes(encode(good)); !ok[0] || !ok[1] {
		t.Fatalf("the built tree must decode: %v", ok)
	}
	grandchild := good.Nodes[1].Children[0]
	for name, mutate := range map[string]func(n []partition.Node){
		"root below level 0":  func(n []partition.Node) { n[0].Level = 1 },
		"parent after child":  func(n []partition.Node) { n[1].Parent = int32(len(n) - 1) },
		"parent cycle":        func(n []partition.Node) { n[1].Parent, n[2].Parent = 2, 1 },
		"level skips":         func(n []partition.Node) { n[1].Level = 3 },
		"child of another":    func(n []partition.Node) { n[0].Children = append(slices.Clone(n[0].Children), grandchild) },
		"child before parent": func(n []partition.Node) { n[2].Children = []int32{1} },
	} {
		bad := *good
		bad.Nodes = slices.Clone(good.Nodes)
		mutate(bad.Nodes)
		if ok := decodes(encode(&bad)); ok[0] || ok[1] {
			t.Errorf("%s: decoded (decode, alias) = %v", name, ok)
		}
	}
	huge := encode(good)
	binary.LittleEndian.PutUint32(huge[4:], 1<<26) // the node count
	if ok := decodes(huge); ok[0] || ok[1] {
		t.Errorf("a node count the payload cannot back decoded: %v", ok)
	}
	// Contains reads the leaf-sequence ranges, so a mapped tree checks them
	// too.
	leaf := good.LeafOf[0]
	for name, mutate := range map[string]func(tr *partition.Tree){
		"leaf covers two slots":   func(tr *partition.Tree) { tr.Nodes[leaf].LeafHi++ },
		"root misses the last":    func(tr *partition.Tree) { tr.Nodes[0].LeafHi-- },
		"children out of order":   func(tr *partition.Tree) { c := tr.Nodes[0].Children; c[0], c[1] = c[1], c[0] },
		"child range shifted":     func(tr *partition.Tree) { tr.Nodes[1].LeafLo++ },
		"leafSeq past every leaf": func(tr *partition.Tree) { tr.LeafSeq[0] = 1 << 30 },
		"leafSeq in another leaf": func(tr *partition.Tree) { tr.LeafSeq[0] = (tr.LeafSeq[0] + 1) % tr.Nodes[0].LeafHi },
		"leafSeq negative":        func(tr *partition.Tree) { tr.LeafSeq[0] = -1 },
	} {
		bad := *good
		bad.Nodes = slices.Clone(good.Nodes)
		for i := range bad.Nodes {
			bad.Nodes[i].Children = slices.Clone(bad.Nodes[i].Children)
		}
		bad.LeafSeq = slices.Clone(good.LeafSeq)
		mutate(&bad)
		if ok := decodes(encode(&bad)); ok[0] || ok[1] {
			t.Errorf("%s: decoded (decode, alias) = %v", name, ok)
		}
	}
	// Every index subscripts nodes by leafOf, so a mapped tree checks it too.
	for _, leaf := range []int32{0, int32(len(good.Nodes))} { // the root, then past the end
		bad := *good
		bad.LeafOf = slices.Clone(good.LeafOf)
		bad.LeafOf[0] = leaf
		if ok := decodes(encode(&bad)); ok[0] || ok[1] {
			t.Errorf("leafOf[0] = %d decoded: %v", leaf, ok)
		}
	}
}
