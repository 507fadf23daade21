// Package knn defines the shared vocabulary of the kNN methods: results,
// object sets, the method interface that all five algorithms implement, the
// distance-oracle interfaces IER composes with, and a brute-force reference
// used to validate every method.
package knn

import (
	"cmp"
	"fmt"
	"slices"

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

// ObjectSet is an immutable set of object vertices with O(1) membership:
// paged membership bits (bitset.Paged) and a count, nothing per object.
// Sets derived from one another with WithDelta share every page their
// deltas did not touch. An ObjectSet is a small value (a directory slice
// and a count) that its owner may hold by value; copies read the same
// pages.
type ObjectSet struct {
	member bitset.Paged
	n      int
}

// NewObjectSet builds an ObjectSet over vertices of g. The input need not be
// sorted; duplicates are dropped.
func NewObjectSet(g *graph.Graph, vertices []int32) *ObjectSet {
	o := &ObjectSet{member: bitset.NewPaged(g.NumVertices()).Edit(vertices)}
	for _, v := range vertices {
		if !o.member.Get(v) {
			o.member.Set(v)
			o.n++
		}
	}
	return o
}

// WithDelta returns a new ObjectSet equal to o minus removes plus adds,
// leaving o untouched — the persistent-update form behind epoch-versioned
// object churn: any reader holding o keeps a consistent view while the next
// epoch is derived. Removals are applied before insertions. The returned
// added/removed slices are the effective delta, each sorted: vertices
// actually inserted (absent before, deduplicated) and actually deleted
// (present before) — exactly the per-element work the derived object
// indexes must replay. They share one slab.
//
// Cost: three allocations — a copy of the membership directory (one
// pointer per 1,024 vertices), one slab of the membership pages the delta
// touches, and the delta's slab — and O(|delta| log |delta|) to sort the
// delta, whatever the size of the set; no index is rebuilt and nothing the
// original set references is mutated.
func (o *ObjectSet) WithDelta(add, remove []int32) (next ObjectSet, added, removed []int32) {
	next.member = o.member.Edit(remove, add)
	delta := make([]int32, len(remove)+len(add))
	removed, added = delta[:0:len(remove)], delta[len(remove):len(remove)]
	for _, v := range remove {
		if next.member.Get(v) {
			next.member.Clear(v)
			removed = append(removed, v)
		}
	}
	for _, v := range add {
		if !next.member.Get(v) {
			next.member.Set(v)
			added = append(added, v)
		}
	}
	slices.Sort(removed)
	slices.Sort(added)
	next.n = o.n - len(removed) + len(added)
	return next, added, removed
}

// Contains reports whether v is an object.
func (o *ObjectSet) Contains(v int32) bool { return o.member.Get(v) }

// Len returns the number of objects.
func (o *ObjectSet) Len() int { return o.n }

// Vertices returns the object vertices in ascending order, in a new slice
// the caller owns. It walks the membership pages (bitset.Paged.AppendOnes):
// one step per 1,024 vertices of the network plus one per word of an
// occupied page, so it is for bulk index builds and references, not for a
// query or a mutation.
func (o *ObjectSet) Vertices() []int32 { return o.member.AppendOnes(make([]int32, 0, o.n)) }

// SizeBytes estimates the in-memory footprint of the set (the lower-bound
// object storage cost INE pays, Figure 18): the membership directory and
// the pages that are not the shared empty page.
func (o *ObjectSet) SizeBytes() int { return o.member.SizeBytes() }

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

// SameResults reports whether two result lists agree as kNN answers: the
// same distance sequence, the same vertices in every group of equal
// distances but the last, and no vertex twice in the last group. The last
// group's vertices are not compared, because when more objects tie at the
// k-th distance than the answer holds, any choice among them is correct.
// Without the graph it cannot tell such a choice from a vertex that is no
// object at that distance: CheckAnswer can.
func SameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dist != b[i].Dist {
			return false
		}
	}
	i := 0
	for i < len(a) {
		j := i + 1
		for j < len(a) && a[j].Dist == a[i].Dist {
			j++
		}
		if j < len(a) && !sameVertexSet(a[i:j], b[i:j]) {
			return false
		}
		if j == len(a) && (repeatsVertex(a[i:]) || repeatsVertex(b[i:])) {
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

func repeatsVertex(rs []Result) bool {
	seen := make(map[int32]bool, len(rs))
	for _, r := range rs {
		if seen[r.Vertex] {
			return true
		}
		seen[r.Vertex] = true
	}
	return false
}

// CheckAnswer returns nil if got is a correct answer from q over objs whose
// brute-force answer is want (BruteForce's, or BruteForceRange's): the
// same length and distance sequence, the same vertices in every group of
// equal distances but the last, and in the last group distinct objects at
// that distance from q, which BruteForceRange to that distance tells.
// Otherwise the error names both answers, and the vertex at fault when it
// is one of the last group's.
func CheckAnswer(g *graph.Graph, objs *ObjectSet, q int32, got, want []Result) error {
	if !SameResults(got, want) {
		return fmt.Errorf("got %s, brute force %s", FormatResults(got), FormatResults(want))
	}
	wantLast := lastGroup(want)
	var within []Result // read only when got names a vertex want does not
	for _, r := range lastGroup(got) {
		if slices.Contains(wantLast, r) {
			continue
		}
		if within == nil {
			within = BruteForceRange(g, objs, q, r.Dist)
		}
		if !slices.Contains(within, r) {
			return fmt.Errorf("got %s, brute force %s: vertex %d is no object at distance %d",
				FormatResults(got), FormatResults(want), r.Vertex, r.Dist)
		}
	}
	return nil
}

// lastGroup returns the trailing results at rs's last distance.
func lastGroup(rs []Result) []Result {
	i := len(rs)
	for i > 0 && rs[i-1].Dist == rs[len(rs)-1].Dist {
		i--
	}
	return rs[i:]
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
