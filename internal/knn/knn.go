// Package knn defines the shared vocabulary of the kNN methods: results,
// object sets, the method interface that all five algorithms implement, the
// distance-oracle interfaces IER composes with, and a brute-force reference
// used to validate every method.
package knn

import (
	"cmp"
	"fmt"
	"sort"

	"rnknn/internal/bitset"
	"rnknn/internal/dijkstra"
	"rnknn/internal/graph"
)

// Result is one kNN answer: an object vertex and its network distance from
// the query vertex. Methods return results in nondecreasing distance order.
type Result struct {
	Vertex int32
	Dist   graph.Dist
}

// ByDistVertex orders results by distance, ties by vertex: the canonical
// order of an answer that is sorted rather than produced in settle order.
func ByDistVertex(a, b Result) int {
	return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Vertex, b.Vertex))
}

// Method is a kNN query algorithm bound to a road network index and an
// object set. Implementations are not safe for concurrent use.
//
// KNNAppend is the primary query form: result storage is caller-owned, so
// a caller reusing its buffer across queries pays no per-query allocation
// — every method keeps its transient search state (heaps, distance arrays,
// stamped sets) on the method value and resets it in O(1) per query, which
// makes a warm KNNAppend allocation-free. KNN is the convenience form that
// allocates a fresh slice.
type Method interface {
	// Name identifies the method in experiment output (e.g. "INE",
	// "IER-PHL", "Gtree").
	Name() string
	// KNN returns the k nearest objects to query vertex q by network
	// distance, fewer if the object set is smaller than k.
	KNN(q int32, k int) []Result
	// KNNAppend appends the same answer to dst and returns the extended
	// slice. Steady-state calls with sufficient capacity do not allocate.
	KNNAppend(q int32, k int, dst []Result) []Result
}

// RangeMethod is implemented by methods that answer range queries natively:
// every object within network distance radius of q, in nondecreasing
// distance order. RangeAppend is the caller-owned-buffer form, mirroring
// Method.KNNAppend.
type RangeMethod interface {
	Range(q int32, radius graph.Dist) []Result
	RangeAppend(q int32, radius graph.Dist, dst []Result) []Result
}

// BoundedMethod is implemented by methods whose kNN search can stop at a
// distance bound: KNNWithinAppend appends the k nearest objects at network
// distance <= bound (inclusive, as a range), in nondecreasing distance
// order, and KNNAppend is its bound = graph.Inf case. The stop rule is the
// one the method's range form already has — INE's bounded expansion, the
// IER family's Euclidean-lower-bound break — so a caller that knows no
// answer beyond some distance can matter (pkg/rnknn's shard fan, with the
// running k-th distance) skips the search past it.
type BoundedMethod interface {
	KNNWithinAppend(q int32, k int, bound graph.Dist, dst []Result) []Result
}

// Interruptible is implemented by methods whose scans can abort early: the
// installed check is polled periodically during expansion, and a true
// return stops the scan, which returns whatever it has found so far.
// pkg/rnknn installs context-cancellation checks through this hook; a nil
// check disables polling.
type Interruptible interface {
	SetInterrupt(check func() bool)
}

// InterruptStride is how many settled vertices the expansion methods (INE,
// ROAD, G-tree's source-leaf search) let pass between interrupt polls: frequent enough to bound
// cancellation latency on graph-wide scans, rare enough to stay off the
// per-vertex hot path.
const InterruptStride = 256

// Streamer is implemented by methods that can report each confirmed
// neighbor as it is finalized, instead of buffering all k results.
// Neighbors are yielded in nondecreasing distance order; a false return
// from yield stops the search immediately (the remaining expansion is
// skipped). Collecting a full stream into a slice yields exactly KNN's
// answer.
//
// The expansion-based methods (INE, ROAD) yield at settle time; G-tree
// yields each queue pop confirmed below the active bound; IER yields a
// verified candidate as soon as the R-tree scan's Euclidean lower bound
// proves no later object can displace it.
type Streamer interface {
	KNNStream(q int32, k int, yield func(Result) bool)
}

// GroupQuery is one member of a shared-expansion group: a kNN query that
// executes together with spatially-clustered companions.
type GroupQuery struct {
	Q int32
	K int
}

// BatchMethod is implemented by methods that can answer a group of
// spatially-clustered kNN queries through one shared computation instead of
// len(qs) independent searches. Exactness is preserved per member: query i's
// answer is identical (up to tie order at the k-th distance, the SameResults
// standard) to KNNAppend(qs[i].Q, qs[i].K, dst[i]).
//
// KNNGroupAppend appends query i's results to dst[i] and stores the
// extended slice back into dst[i]; len(dst) must equal len(qs). Like
// KNNAppend, steady-state calls with sufficient capacity in every dst slice
// and a warm method value do not allocate. Group members are expected to be
// close together (the caller groups by partition leaf cell); correctness
// does not depend on it, only the speedup does.
//
// INE's multi-source frontier is the one implementer (a G-tree group was
// measured slower than its own fan-out and dropped). The interface stays
// because it is how pkg/rnknn reaches the kernel through a core.Session
// without importing the method package.
type BatchMethod interface {
	Method
	KNNGroupAppend(qs []GroupQuery, dst [][]Result)
}

// DistanceOracle answers point-to-point network distance queries; IER can
// be composed with any of these (Section 5).
type DistanceOracle interface {
	Name() string
	Distance(s, t int32) graph.Dist
}

// SourceOracle answers repeated distance queries from one fixed source.
// Oracles that can materialize per-source state (MGtree's assembled border
// distances, a suspended Dijkstra) implement SourceFactory to expose it;
// IER prefers this form.
type SourceOracle interface {
	DistanceTo(t int32) graph.Dist
}

// SourceFactory creates per-source oracles.
type SourceFactory interface {
	Name() string
	NewSource(s int32) SourceOracle
}

// ObjectSet is an immutable set of object vertices with O(1) membership.
type ObjectSet struct {
	verts  []int32
	member *bitset.Set
}

// NewObjectSet builds an ObjectSet over vertices of g. The input need not be
// sorted; duplicates are dropped.
func NewObjectSet(g *graph.Graph, vertices []int32) *ObjectSet {
	member := bitset.New(g.NumVertices())
	verts := make([]int32, 0, len(vertices))
	for _, v := range vertices {
		if !member.Get(v) {
			member.Set(v)
			verts = append(verts, v)
		}
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	return &ObjectSet{verts: verts, member: member}
}

// WithDelta returns a new ObjectSet equal to o minus removes plus adds,
// leaving o untouched — the persistent-update form behind epoch-versioned
// object churn: any reader holding o keeps a consistent view while the next
// epoch is derived. Removals are applied before insertions. The returned
// added/removed slices are the effective delta: vertices actually inserted
// (absent before, deduplicated) and actually deleted (present before) —
// exactly the per-element work the derived object indexes must replay.
//
// Cost is one memcpy of the membership words and one pass over the vertex
// slice plus O(|delta| log |delta|); no index is rebuilt and nothing the
// original set references is mutated.
func (o *ObjectSet) WithDelta(add, remove []int32) (next *ObjectSet, added, removed []int32) {
	member := o.member.Clone()
	for _, v := range remove {
		if member.Get(v) {
			member.Clear(v)
			removed = append(removed, v)
		}
	}
	for _, v := range add {
		if !member.Get(v) {
			member.Set(v)
			added = append(added, v)
		}
	}
	// Rebuild the sorted vertex slice: survivors of the old slice merged
	// with the sorted effective additions.
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	verts := make([]int32, 0, len(o.verts)-len(removed)+len(added))
	ai := 0
	for _, v := range o.verts {
		for ai < len(added) && added[ai] < v {
			verts = append(verts, added[ai])
			ai++
		}
		if ai < len(added) && added[ai] == v {
			// v was removed and re-added in this same delta; emit it once.
			ai++
		}
		if member.Get(v) {
			verts = append(verts, v)
		}
	}
	verts = append(verts, added[ai:]...)
	return &ObjectSet{verts: verts, member: member}, added, removed
}

// Contains reports whether v is an object.
func (o *ObjectSet) Contains(v int32) bool { return o.member.Get(v) }

// Len returns the number of objects.
func (o *ObjectSet) Len() int { return len(o.verts) }

// Vertices returns the sorted object vertices; the slice must not be
// modified.
func (o *ObjectSet) Vertices() []int32 { return o.verts }

// SizeBytes estimates the in-memory footprint of the set (the lower-bound
// object storage cost INE pays, Figure 18).
func (o *ObjectSet) SizeBytes() int { return len(o.verts)*4 + o.member.Capacity()/8 }

// BruteForce computes the exact kNN answer by a full Dijkstra expansion that
// stops after k objects are settled. It is the correctness reference for all
// methods.
func BruteForce(g *graph.Graph, objs *ObjectSet, q int32, k int) []Result {
	r := dijkstra.NewResumable(g, q)
	out := make([]Result, 0, k)
	for len(out) < k {
		v, d, ok := r.Next()
		if !ok {
			break
		}
		if objs.Contains(v) {
			out = append(out, Result{v, d})
		}
	}
	return out
}

// SameResults reports whether two result lists agree: identical distance
// sequences, and identical vertices wherever distances are unique. It
// tolerates tie reordering among equal distances.
func SameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dist != b[i].Dist {
			return false
		}
	}
	// Group by distance and compare vertex sets per group. The group at the
	// k-th (last) distance is exempt: when several objects tie at the cutoff
	// distance, any choice among them is a correct kNN answer.
	i := 0
	for i < len(a) {
		j := i + 1
		for j < len(a) && a[j].Dist == a[i].Dist {
			j++
		}
		if j < len(a) && !sameVertexSet(a[i:j], b[i:j]) {
			return false
		}
		i = j
	}
	return true
}

func sameVertexSet(a, b []Result) bool {
	if len(a) == 1 {
		return a[0].Vertex == b[0].Vertex
	}
	seen := make(map[int32]int, len(a))
	for _, r := range a {
		seen[r.Vertex]++
	}
	for _, r := range b {
		seen[r.Vertex]--
	}
	for _, c := range seen {
		if c != 0 {
			return false
		}
	}
	return true
}

// FormatResults renders results compactly for logs and examples.
func FormatResults(rs []Result) string {
	s := "["
	for i, r := range rs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%d", r.Vertex, r.Dist)
	}
	return s + "]"
}

// BruteForceRange computes the exact set of objects within network distance
// radius of q, in nondecreasing distance order (the range-query reference).
func BruteForceRange(g *graph.Graph, objs *ObjectSet, q int32, radius graph.Dist) []Result {
	r := dijkstra.NewResumable(g, q)
	var out []Result
	for {
		v, d, ok := r.Next()
		if !ok || d > radius {
			break
		}
		if objs.Contains(v) {
			out = append(out, Result{v, d})
		}
	}
	return out
}
