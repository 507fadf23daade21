package gtree

import (
	"math"
	"slices"

	"rnknn/internal/knn"
)

// OccurrenceList is G-tree's decoupled object index (Section 3.5): for every
// tree node, how many objects its subgraph holds — a child is occupied when
// its count is nonzero — and for every leaf, the object vertices it
// contains. It is built once per object set and passed to the kNN
// algorithm, mirroring how the paper separates object index construction
// from querying (Section 7.4, Appendix A.2).
//
// A list is immutable: Next derives the list of the next object set into
// fresh arrays, so the original keeps answering from its own set — the
// per-method maintainer contract of the epoch-versioned object store. The
// list holds three flat arrays and no per-node slices, so an almost empty
// category costs two int32 per node.
type OccurrenceList struct {
	// count[n] is the number of objects in node n's subgraph.
	count []int32
	// leafObj[leafOff[n]:leafOff[n+1]] are the object vertices of leaf n in
	// ascending order (empty for inner nodes): the leaf lists in CSR form.
	leafOff, leafObj []int32
	// objs is the object set the list was built over: the O(1) membership
	// test the Algorithm 4 leaf search uses in place of a per-query hash set.
	objs *knn.ObjectSet
}

// NewOccurrenceList builds the occurrence list for objs over the index in
// O(objects × tree height + nodes): the counts up every object's ancestor
// chain, then the leaf lists by a counting sort — leafOff[n] starts at the
// end of leaf n's range and steps back once per object, visited in
// descending order, so it ends at the range's start with the leaf's objects
// ascending.
func (x *Index) NewOccurrenceList(objs *knn.ObjectSet) *OccurrenceList {
	nodes := x.PT.Nodes
	ol := &OccurrenceList{
		count:   make([]int32, len(nodes)),
		leafOff: make([]int32, len(nodes)+1),
		leafObj: make([]int32, objs.Len()),
		objs:    objs,
	}
	vs := objs.Vertices()
	for _, v := range vs {
		ol.shift(x, v, 1)
	}
	var end int32
	for n := range nodes {
		if nodes[n].IsLeaf() {
			end += ol.count[n]
		}
		ol.leafOff[n] = end
	}
	ol.leafOff[len(nodes)] = end
	for i := len(vs) - 1; i >= 0; i-- {
		leaf := x.PT.LeafOf[vs[i]]
		ol.leafOff[leaf]--
		ol.leafObj[ol.leafOff[leaf]] = vs[i]
	}
	return ol
}

// Next returns the list of objs, the successor of ol's object set whose
// effective delta is added and removed (knn.ObjectSet.WithDelta: each vertex
// at most once per slice, removed ones present in ol, added ones absent
// after the removals, so a vertex removed and re-added is in both). The
// counts are copied and moved along the delta's ancestor chains. The leaf
// lists keep their node order, so every run of nodes between two touched
// leaves moves as one block, by the size change of the touched leaves
// before it; a touched leaf's list is its old list minus the removed
// vertices merged with the added ones. Cost: O(tree height + touched-leaf
// objects) per changed object, plus one O(objects + nodes) memcpy.
func (ol *OccurrenceList) Next(x *Index, objs *knn.ObjectSet, added, removed []int32) *OccurrenceList {
	nodes := x.PT.Nodes
	next := &OccurrenceList{
		count:   slices.Clone(ol.count),
		leafOff: make([]int32, len(nodes)+1),
		leafObj: make([]int32, objs.Len()),
		objs:    objs,
	}
	// Each changed vertex as one key, leaf then vertex, so sorting groups
	// the delta by leaf in node order and each leaf's part ascending.
	keys := make([]int64, len(removed)+len(added))
	rm, ad := keys[:len(removed)], keys[len(removed):]
	for i, v := range removed {
		next.shift(x, v, -1)
		rm[i] = key(x.PT.LeafOf[v], v)
	}
	for i, v := range added {
		next.shift(x, v, 1)
		ad[i] = key(x.PT.LeafOf[v], v)
	}
	slices.Sort(rm)
	slices.Sort(ad)
	var from, d int32 // first node not yet placed; its range's move
	for len(rm) > 0 || len(ad) > 0 {
		leaf := int32(min(head(rm), head(ad)) >> 32)
		next.copyRun(ol, from, leaf, d)
		out := next.leafObj[next.leafOff[leaf] : next.leafOff[leaf]+next.count[leaf]]
		i := 0
		for _, u := range ol.LeafObjects(leaf) {
			if len(rm) > 0 && rm[0] == key(leaf, u) {
				rm = rm[1:]
				continue
			}
			for ; len(ad) > 0 && ad[0] < key(leaf, u); ad = ad[1:] {
				out[i] = int32(ad[0])
				i++
			}
			out[i] = u
			i++
		}
		for ; len(ad) > 0 && ad[0]>>32 == int64(leaf); ad = ad[1:] {
			out[i] = int32(ad[0])
			i++
		}
		d += next.count[leaf] - ol.count[leaf]
		from = leaf + 1
	}
	next.copyRun(ol, from, int32(len(nodes)), d)
	return next
}

// copyRun places the untouched nodes from..to-1 of ol into next with every
// range moved by d. It also sets next.leafOff[to]: the start of the touched
// leaf that ends the run, or the end sentinel.
func (next *OccurrenceList) copyRun(ol *OccurrenceList, from, to, d int32) {
	off := next.leafOff[from : to+1]
	copy(off, ol.leafOff[from:to+1])
	if d != 0 {
		for i := range off {
			off[i] += d
		}
	}
	copy(next.leafObj[off[0]:], ol.leafObj[ol.leafOff[from]:ol.leafOff[to]])
}

// key is the sort key of object v in leaf n.
func key(n, v int32) int64 { return int64(n)<<32 | int64(v) }

// head is the first key of a sorted delta part, past every key when empty.
func head(keys []int64) int64 {
	if len(keys) == 0 {
		return math.MaxInt64
	}
	return keys[0]
}

// shift adds d to the count of every node on v's ancestor chain.
func (ol *OccurrenceList) shift(x *Index, v, d int32) {
	for n := x.PT.LeafOf[v]; n != -1; n = x.PT.Nodes[n].Parent {
		ol.count[n] += d
	}
}

// HasObjects reports whether node ni's subgraph contains any object.
func (ol *OccurrenceList) HasObjects(ni int32) bool { return ol.count[ni] > 0 }

// Count returns the number of objects under node ni.
func (ol *OccurrenceList) Count(ni int32) int32 { return ol.count[ni] }

// LeafObjects returns the objects in leaf ni.
func (ol *OccurrenceList) LeafObjects(ni int32) []int32 {
	return ol.leafObj[ol.leafOff[ni]:ol.leafOff[ni+1]]
}

// IsObject reports whether v is an object vertex.
func (ol *OccurrenceList) IsObject(v int32) bool { return ol.objs.Contains(v) }

// SizeBytes estimates the occurrence list's memory footprint (the object
// index cost of Figure 18): the counts, the leaf lists and the object set
// whose membership bits IsObject reads.
func (ol *OccurrenceList) SizeBytes() int {
	return (len(ol.count)+len(ol.leafOff)+len(ol.leafObj))*4 + ol.objs.SizeBytes()
}
