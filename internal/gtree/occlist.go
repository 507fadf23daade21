package gtree

import "rnknn/internal/knn"

// OccurrenceList is G-tree's decoupled object index (Section 3.5): for every
// tree node, the children that contain objects, and for every leaf, the
// object vertices it contains. It is built once per object set and passed
// to the kNN algorithm, mirroring how the paper separates object index
// construction from querying (Section 7.4, Appendix A.2).
//
// A list is immutable: Next derives the list of the next object set in
// O(delta x (tree height + leaf objects)) instead of rebuilding, replacing
// the per-node object and child slices it touches copy-on-write so the
// original keeps answering from its own set — the per-method maintainer
// contract of the epoch-versioned object store.
type OccurrenceList struct {
	// childOcc[n] lists the children of node n containing >= 1 object.
	childOcc [][]int32
	// leafObjs[n] lists object vertices in leaf n, nil otherwise.
	leafObjs [][]int32
	// count[n] is the number of objects in node n's subgraph.
	count []int32
	// objs is the object set the list was built over: the O(1) membership
	// test the Algorithm 4 leaf search uses in place of a per-query hash set.
	objs *knn.ObjectSet
}

// NewOccurrenceList builds the occurrence list for objs over the index.
func (x *Index) NewOccurrenceList(objs *knn.ObjectSet) *OccurrenceList {
	ol := &OccurrenceList{
		childOcc: make([][]int32, len(x.nodes)),
		leafObjs: make([][]int32, len(x.nodes)),
		count:    make([]int32, len(x.nodes)),
		objs:     objs,
	}
	pt := x.PT
	for _, v := range objs.Vertices() {
		leaf := pt.LeafOf[v]
		ol.leafObjs[leaf] = append(ol.leafObjs[leaf], v)
		// Propagate counts bottom-up.
		for n := leaf; n != -1; n = pt.Nodes[n].Parent {
			ol.count[n]++
		}
	}
	for ni := range pt.Nodes {
		if pt.Nodes[ni].IsLeaf() {
			continue
		}
		for _, c := range pt.Nodes[ni].Children {
			if ol.count[c] > 0 {
				ol.childOcc[ni] = append(ol.childOcc[ni], c)
			}
		}
	}
	return ol
}

// Next returns the list of objs, the successor of ol's object set whose
// effective delta is added and removed (knn.ObjectSet.WithDelta: each vertex
// at most once per slice, removed ones present in ol, added ones absent
// after the removals). The fixed-size arrays are memcpys; the per-node
// slices are shared with ol until add or remove replaces them.
func (ol *OccurrenceList) Next(x *Index, objs *knn.ObjectSet, added, removed []int32) *OccurrenceList {
	next := &OccurrenceList{
		childOcc: append([][]int32(nil), ol.childOcc...),
		leafObjs: append([][]int32(nil), ol.leafObjs...),
		count:    append([]int32(nil), ol.count...),
		objs:     objs,
	}
	for _, v := range removed {
		next.remove(x, v)
	}
	for _, v := range added {
		next.add(x, v)
	}
	return next
}

// HasObjects reports whether node ni's subgraph contains any object.
func (ol *OccurrenceList) HasObjects(ni int32) bool { return ol.count[ni] > 0 }

// Count returns the number of objects under node ni.
func (ol *OccurrenceList) Count(ni int32) int32 { return ol.count[ni] }

// Children returns the children of node ni containing objects.
func (ol *OccurrenceList) Children(ni int32) []int32 { return ol.childOcc[ni] }

// LeafObjects returns the objects in leaf ni.
func (ol *OccurrenceList) LeafObjects(ni int32) []int32 { return ol.leafObjs[ni] }

// IsObject reports whether v is an object vertex.
func (ol *OccurrenceList) IsObject(v int32) bool { return ol.objs.Contains(v) }

// add registers a new object vertex, updating leaf lists, counts and child
// occurrences along its ancestor chain. The paper's decoupled-index design
// makes this cheap compared to re-indexing the road network (Section 2.2).
func (ol *OccurrenceList) add(x *Index, v int32) {
	pt := x.PT
	leaf := pt.LeafOf[v]
	ol.leafObjs[leaf] = cowAppend(ol.leafObjs[leaf], v)
	for n := leaf; n != -1; n = pt.Nodes[n].Parent {
		ol.count[n]++
		parent := pt.Nodes[n].Parent
		if parent != -1 && ol.count[n] == 1 {
			ol.childOcc[parent] = cowAppend(ol.childOcc[parent], n)
		}
	}
}

// remove deletes an object vertex, reversing add.
func (ol *OccurrenceList) remove(x *Index, v int32) {
	pt := x.PT
	leaf := pt.LeafOf[v]
	ol.leafObjs[leaf] = cowDelete(ol.leafObjs[leaf], v)
	for n := leaf; n != -1; n = pt.Nodes[n].Parent {
		ol.count[n]--
		parent := pt.Nodes[n].Parent
		if parent != -1 && ol.count[n] == 0 {
			ol.childOcc[parent] = cowDelete(ol.childOcc[parent], n)
		}
	}
}

// cowAppend and cowDelete replace a per-node slice instead of mutating it
// in place, so the list Next derived from keeps its view — required for
// epoch sharing, and cheap because the slices are leaf- or fanout-sized.
func cowAppend(s []int32, v int32) []int32 {
	out := make([]int32, len(s)+1)
	copy(out, s)
	out[len(s)] = v
	return out
}

func cowDelete(s []int32, v int32) []int32 {
	out := make([]int32, 0, len(s)-1)
	for _, e := range s {
		if e != v {
			out = append(out, e)
		}
	}
	return out
}

// SizeBytes estimates the occurrence list's memory footprint (the object
// index cost of Figure 18): the counts and child occurrences plus the object
// set — its vertices are what the leaf lists hold, its membership bits what
// IsObject reads.
func (ol *OccurrenceList) SizeBytes() int {
	total := len(ol.count)*4 + ol.objs.SizeBytes()
	for _, c := range ol.childOcc {
		total += len(c) * 4
	}
	return total
}
