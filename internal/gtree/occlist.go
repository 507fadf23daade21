package gtree

import (
	"slices"

	"rnknn/internal/knn"
	"rnknn/internal/partition"
)

// OccurrenceList is G-tree's decoupled object index (Section 3.5): for every
// tree node, how many objects its subgraph holds — a child is occupied when
// its count is nonzero — and for every leaf, the object vertices it
// contains. It is built once per object set and passed to the kNN
// algorithm, mirroring how the paper separates object index construction
// from querying (Section 7.4, Appendix A.2).
//
// The list is sized by the objects, not the tree: one array of the objects
// in (leaf sequence, vertex) order, where a leaf's sequence number is its
// position in the partition's DFS leaf order (partition.Tree.LeafSeq). A
// node's subtree covers one range of sequence numbers, [LeafLo, LeafHi), so
// its objects are one run of the array, found by binary search over the
// objects' LeafSeq keys; a leaf's run is its objects in ascending order.
//
// A list is immutable: Next derives the list of the next object set into a
// fresh array, so the original keeps answering from its own set — the
// per-method maintainer contract of the epoch-versioned object store.
type OccurrenceList struct {
	// obj[i] is the i-th object in (leaf sequence, vertex) order.
	obj []int32
	pt  *partition.Tree
	// objs is the object set the list was built over: the O(1) membership
	// test the Algorithm 4 leaf search uses in place of a per-query hash set.
	objs *knn.ObjectSet
}

// NewOccurrenceList builds the occurrence list for objs over the index in
// O(objects + leaves): a counting sort of the objects by leaf sequence —
// start[s] is where leaf s's run begins — over the set's ascending
// vertices, so each run comes out ascending.
func (x *Index) NewOccurrenceList(objs *knn.ObjectSet) *OccurrenceList {
	vs := objs.Vertices()
	ol := &OccurrenceList{obj: make([]int32, len(vs)), pt: x.PT, objs: objs}
	start := make([]int32, x.PT.Nodes[0].LeafHi+1)
	for _, v := range vs {
		start[x.PT.LeafSeq[v]+1]++
	}
	for s := 1; s < len(start); s++ {
		start[s] += start[s-1]
	}
	for _, v := range vs {
		s := x.PT.LeafSeq[v]
		ol.obj[start[s]] = v
		start[s]++
	}
	return ol
}

// Next returns the list of objs, the successor of ol's object set whose
// effective delta is added and removed (knn.ObjectSet.WithDelta: each vertex
// at most once per slice, removed ones present in ol, added ones absent
// after the removals, so a vertex removed and re-added is in both). The
// delta is keyed and sorted like the list, and the list is merged with it:
// every run of untouched objects between two delta positions is one copy, a
// removal skips its object and an addition is written at its place. Cost:
// O(objects) copied plus O(delta log objects) to find the positions —
// nothing per tree node.
func (ol *OccurrenceList) Next(x *Index, objs *knn.ObjectSet, added, removed []int32) *OccurrenceList {
	var buf [32]int64 // a small delta's keys stay off the heap
	keys := buf[:0]
	for _, v := range removed {
		keys = append(keys, key(x.PT.LeafSeq[v], v))
	}
	for _, v := range added {
		keys = append(keys, key(x.PT.LeafSeq[v], v))
	}
	rm, ad := keys[:len(removed)], keys[len(removed):]
	slices.Sort(rm)
	slices.Sort(ad)
	next := &OccurrenceList{obj: make([]int32, len(ol.obj)-len(rm)+len(ad)), pt: x.PT, objs: objs}
	from, out := 0, 0 // ol's objects before from are placed, next's before out are written
	copyTo := func(k int64) {
		at := ol.search(from, k)
		copy(next.obj[out:], ol.obj[from:at])
		out += at - from
		from = at
	}
	// A removal sorts before an addition of the same key, so a vertex
	// removed and re-added skips its old place and is written once.
	for len(rm) > 0 || len(ad) > 0 {
		if len(rm) > 0 && (len(ad) == 0 || rm[0] <= ad[0]) {
			copyTo(rm[0])
			from++
			rm = rm[1:]
			continue
		}
		copyTo(ad[0])
		next.obj[out] = int32(ad[0])
		out++
		ad = ad[1:]
	}
	copy(next.obj[out:], ol.obj[from:])
	return next
}

// search returns the position of ol's first object, from position from
// on, whose key is at least k.
func (ol *OccurrenceList) search(from int, k int64) int {
	lo, hi := from, len(ol.obj)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if v := ol.obj[m]; key(ol.pt.LeafSeq[v], v) < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// key is the sort key of object v in the leaf with sequence number seq.
func key(seq, v int32) int64 { return int64(seq)<<32 | int64(v) }

// lowerBound returns the position of ol's first object whose leaf sequence
// number is at least s (vertices are non-negative, so key(s, 0) is the
// least key in leaf s).
func (ol *OccurrenceList) lowerBound(s int32) int { return ol.search(0, key(s, 0)) }

// HasObjects reports whether node ni's subgraph contains any object: one
// binary search for the node's first leaf.
func (ol *OccurrenceList) HasObjects(ni int32) bool {
	n := &ol.pt.Nodes[ni]
	i := ol.lowerBound(n.LeafLo)
	return i < len(ol.obj) && ol.pt.LeafSeq[ol.obj[i]] < n.LeafHi
}

// Count returns the number of objects under node ni.
func (ol *OccurrenceList) Count(ni int32) int32 {
	n := &ol.pt.Nodes[ni]
	return int32(ol.lowerBound(n.LeafHi) - ol.lowerBound(n.LeafLo))
}

// LeafObjects returns the objects in leaf ni in ascending order (none for
// an inner node).
func (ol *OccurrenceList) LeafObjects(ni int32) []int32 {
	n := &ol.pt.Nodes[ni]
	if !n.IsLeaf() {
		return nil
	}
	lo := ol.lowerBound(n.LeafLo)
	hi := lo
	for hi < len(ol.obj) && ol.pt.LeafSeq[ol.obj[hi]] == n.LeafLo {
		hi++
	}
	return ol.obj[lo:hi]
}

// IsObject reports whether v is an object vertex.
func (ol *OccurrenceList) IsObject(v int32) bool { return ol.objs.Contains(v) }

// SizeBytes estimates the occurrence list's memory footprint (the object
// index cost of Figure 18): the ordered objects and the object set whose
// membership bits IsObject reads.
func (ol *OccurrenceList) SizeBytes() int {
	return len(ol.obj)*4 + ol.objs.SizeBytes()
}
