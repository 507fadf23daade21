// Binary codec for the partition tree, embedded inside the G-tree and ROAD
// snapshot sections (both indexes are hierarchies over a Tree, and the tree
// itself is the one build product the cheap derived fields cannot be
// recomputed from). See docs/SNAPSHOT_FORMAT.md.
package partition

import (
	"rnknn/internal/snapio"
)

// Encode serializes t into w. The layout is: fanout u32, node count u32,
// then per node parent i32, level i32, leafLo i32, leafHi i32, children
// []int32, vertices []int32; then LeafOf []int32 and LeafSeq []int32. The
// variable-length arrays use the snapio raw 64-byte-aligned layout.
func Encode(t *Tree, w *snapio.Writer) {
	w.U32(uint32(t.Fanout))
	w.U32(uint32(len(t.Nodes)))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		w.U32(uint32(n.Parent))
		w.U32(uint32(n.Level))
		w.U32(uint32(n.LeafLo))
		w.U32(uint32(n.LeafHi))
		snapio.WriteRaw(w, n.Children)
		snapio.WriteRaw(w, n.Vertices)
	}
	snapio.WriteRaw(w, t.LeafOf)
	snapio.WriteRaw(w, t.LeafSeq)
}

// minNodeBytes is the smallest encoding of one node: four u32 fields and
// two array length prefixes. Bounding the node count by the bytes left
// keeps a corrupt count from driving an allocation the payload cannot back.
const minNodeBytes = 4*4 + 2*4

// Decode reads a tree written by Encode for a graph of numVertices vertices.
// Every check runs on both paths: node vertices and leafOf in range, the
// shape Build emits (every node after its parent, one level below it, and
// listed as its parent's child — so walks up and down the tree terminate)
// and leaf-sequence ranges that nest as Build's do, so Contains answers as
// it did for the built tree. On any inconsistency Decode records an error
// on r and returns nil.
func Decode(r *snapio.Source, numVertices int) *Tree {
	t := &Tree{Fanout: int(r.U32())}
	count := int(r.U32())
	if r.Err() != nil {
		return nil
	}
	if count <= 0 || count > r.Remaining()/minNodeBytes {
		r.Failf("partition tree has implausible node count %d", count)
		return nil
	}
	t.Nodes = make([]Node, count)
	for i := range t.Nodes {
		n := &t.Nodes[i]
		n.Parent = int32(r.U32())
		n.Level = int32(r.U32())
		n.LeafLo = int32(r.U32())
		n.LeafHi = int32(r.U32())
		n.Children = snapio.ReadRaw[int32](r)
		n.Vertices = r.ReadIndex(numVertices, "partition node vertices")
		if r.Err() != nil {
			return nil
		}
		if i == 0 && (n.Parent != -1 || n.Level != 0) {
			r.Failf("partition root has parent %d, level %d", n.Parent, n.Level)
			return nil
		}
		if i > 0 && (n.Parent < 0 || int(n.Parent) >= i || n.Level != t.Nodes[n.Parent].Level+1) {
			r.Failf("partition node %d (level %d) does not follow its parent %d", i, n.Level, n.Parent)
			return nil
		}
		for _, c := range n.Children {
			if int(c) <= i || int(c) >= count {
				r.Failf("partition node %d child %d out of range", i, c)
				return nil
			}
		}
	}
	for i := range t.Nodes {
		for _, c := range t.Nodes[i].Children {
			if t.Nodes[c].Parent != int32(i) {
				r.Failf("partition node %d lists child %d, whose parent is %d", i, c, t.Nodes[c].Parent)
				return nil
			}
		}
	}
	t.LeafOf = snapio.ReadRaw[int32](r)
	t.LeafSeq = snapio.ReadRaw[int32](r)
	if r.Err() != nil {
		return nil
	}
	if len(t.LeafOf) != numVertices || len(t.LeafSeq) != numVertices {
		r.Failf("partition vertex maps have %d/%d entries for %d vertices",
			len(t.LeafOf), len(t.LeafSeq), numVertices)
		return nil
	}
	for v, li := range t.LeafOf {
		if li < 0 || int(li) >= count || !t.Nodes[li].IsLeaf() {
			r.Failf("vertex %d mapped to invalid leaf %d", v, li)
			return nil
		}
	}
	if !leafRangesNest(t, r) {
		return nil
	}
	return t
}

// leafRangesNest checks, in O(nodes + |V|), that the leaf-sequence ranges
// answer Contains as Build's do: every leaf's range is one slot, the root's
// is [0, #leaves), each node's children tile its range in order, and every
// vertex's LeafSeq is its leaf's slot. Accepted, a range that leaves out a
// vertex's slot makes Contains(root, v) false, and G-tree's border walk
// then runs past the root.
func leafRangesNest(t *Tree, r *snapio.Source) bool {
	leaves := int32(0)
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() {
			leaves++
		}
	}
	if root := &t.Nodes[0]; root.LeafLo != 0 || root.LeafHi != leaves {
		r.Failf("partition root covers leaf slots [%d, %d) of %d", root.LeafLo, root.LeafHi, leaves)
		return false
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.IsLeaf() {
			if n.LeafHi != n.LeafLo+1 {
				r.Failf("partition leaf %d covers slots [%d, %d)", i, n.LeafLo, n.LeafHi)
				return false
			}
			continue
		}
		at := n.LeafLo
		for _, c := range n.Children {
			if t.Nodes[c].LeafLo != at {
				r.Failf("partition node %d: child %d starts at slot %d, not %d", i, c, t.Nodes[c].LeafLo, at)
				return false
			}
			at = t.Nodes[c].LeafHi
		}
		if at != n.LeafHi {
			r.Failf("partition node %d: children end at slot %d, not %d", i, at, n.LeafHi)
			return false
		}
	}
	for v, li := range t.LeafOf {
		if t.LeafSeq[v] != t.Nodes[li].LeafLo {
			r.Failf("vertex %d has leaf slot %d, its leaf %d slot %d", v, t.LeafSeq[v], li, t.Nodes[li].LeafLo)
			return false
		}
	}
	return true
}
