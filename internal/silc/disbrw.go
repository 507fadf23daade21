package silc

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"rnknn/internal/geo"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/pqueue"
	"rnknn/internal/rtree"
	"rnknn/internal/scratch"
)

// candidates is the shared Distance Browsing machinery: per-object interval
// refiners, the global lower-bound queue Q, the max-heap candidate list L
// capped at k (Dk = largest candidate upper bound once |L| = k), and the
// corrected bookkeeping of Appendix A.1 (delete-before-refine, inclusive
// re-insert, tie refinement).
//
// The state is reusable: the refiners live in an arena indexed by a
// stamped per-vertex table (the former map[int32]*Refiner), membership in
// L is a stamped set, and both heaps retain their backing arrays — reset
// is O(1) and a warm query allocates nothing.
type candidates struct {
	x  *Index
	q  int32
	k  int
	dk graph.Dist
	// queue of objects (and, for the Object Hierarchy variant, nodes
	// encoded as -(id+1)) keyed by lower bound.
	queue *pqueue.Queue
	l     *pqueue.MaxQueue
	// refiners is the arena; ref maps an object vertex to its slot in it.
	// Arena pointers are only held within one step, never across an
	// addRefiner (growth may move the backing array).
	refiners []Refiner
	ref      *scratch.Map32
	inL      *scratch.Set

	// interrupt, when non-nil, is polled once per iteration of the browse
	// loop; a true return stops it, and the query returns the candidates
	// in L (see knn.Interruptible).
	interrupt func() bool
}

// init sizes the stamped tables for x's graph; call once per owner.
func (c *candidates) init(x *Index) {
	n := x.G.NumVertices()
	c.x = x
	c.queue = pqueue.NewQueue(64)
	c.l = &pqueue.MaxQueue{}
	c.ref = scratch.NewMap32(n)
	c.inL = scratch.NewSet(n)
}

// reset retargets the machinery to a new (q, k) in O(1).
func (c *candidates) reset(q int32, k int) {
	c.q = q
	c.k = k
	c.dk = graph.Inf
	c.queue.Reset()
	c.l.Reset()
	c.refiners = c.refiners[:0]
	c.ref.Reset()
	c.inL.Reset()
}

func (c *candidates) interrupted() bool { return c.interrupt != nil && c.interrupt() }

// refinerOf returns o's refiner, or nil when o has not been encountered
// this query.
func (c *candidates) refinerOf(o int32) *Refiner {
	i, ok := c.ref.Get(o)
	if !ok {
		return nil
	}
	return &c.refiners[i]
}

// addRefiner allocates o's refiner from the arena and initializes it.
func (c *candidates) addRefiner(o int32) *Refiner {
	i := len(c.refiners)
	if i < cap(c.refiners) {
		c.refiners = c.refiners[:i+1]
	} else {
		c.refiners = append(c.refiners, Refiner{})
	}
	c.ref.Put(o, int32(i))
	r := &c.refiners[i]
	r.Init(c.x, c.q, o)
	return r
}

// updateL implements UpdateL of Algorithm 1: insert the candidate, trim L
// to k entries, and tighten Dk. Dk only ever decreases. An evicted
// candidate is re-queued (if it can still win) so that a previously
// "implicitly dropped" object is never lost.
func (c *candidates) updateL(o int32, ub graph.Dist) {
	c.l.Push(o, int64(ub))
	c.inL.Add(o)
	if c.l.Len() >= c.k {
		if c.l.Len() > c.k {
			ev := c.l.Pop()
			c.inL.Remove(ev.ID)
			if r := c.refinerOf(ev.ID); r != nil && ev.ID != o {
				if lb, _ := r.Bounds(); lb < c.dk {
					c.queue.Push(ev.ID, int64(lb))
				}
			}
		}
		if front := graph.Dist(c.l.MaxKey()); front < c.dk {
			c.dk = front
		}
	}
}

// processCandidate admits a newly encountered object: compute its initial
// interval (one Morton-list lookup) and file it under Q and L as its bounds
// allow (ProcessCandidate of Algorithm 2 / lines 19-26 of Algorithm 1).
func (c *candidates) processCandidate(o int32) {
	if _, seen := c.ref.Get(o); seen {
		return
	}
	r := c.addRefiner(o)
	lb, ub := r.Bounds()
	if lb < c.dk {
		c.queue.Push(o, int64(lb))
	}
	if ub < c.dk {
		c.updateL(o, ub)
	}
}

// handleObject processes a dequeued object per lines 9-16 of Algorithm 1.
// extraFront is a lower bound on the distance of objects not yet in the
// queue (the suspended Euclidean scan's Front(E) in Algorithm 2; Inf when
// every pending object is queued).
func (c *candidates) handleObject(o int32, extraFront graph.Dist) {
	r := c.refinerOf(o)
	lb, ub := r.Bounds()
	front := graph.Dist(c.queue.MinKey())
	if extraFront < front {
		front = extraFront
	}
	// Refine when the interval may still matter for ordering (lines 9-16,
	// with the Appendix A.1 tie correction). The third clause guards the
	// drop: an object that is neither filed in L nor safely below Dk must
	// keep refining, or a true neighbor could be lost (the edge case the
	// paper's line-6 termination otherwise prevents).
	if ub > front || (ub == front && ub != lb) || (!c.inL.Contains(o) && ub > c.dk) {
		if ub <= c.dk && c.inL.Contains(o) {
			c.l.Remove(o)
			c.inL.Remove(o)
		}
		r.Step()
		lb, ub = r.Bounds()
		if ub <= c.dk {
			c.updateL(o, ub)
		}
		if lb <= c.dk {
			c.queue.Push(o, int64(lb))
		}
	}
	// Else: implicitly dropped — its upper bound is at or below every
	// remaining lower bound, so no remaining object can beat it. File it in
	// L if a tighter earlier Dk kept it out.
	if !c.inL.Contains(o) && ub <= c.dk {
		c.updateL(o, ub)
	}
}

// resultsAppend drains L into dst in ascending distance order, refining any
// unconverged candidate to its exact distance so callers receive true
// network distances (the algorithm's membership is unchanged; see Appendix
// A.1 discussion). The appended segment is sorted stably in place, without
// allocating.
func (c *candidates) resultsAppend(dst []knn.Result) []knn.Result {
	base := len(dst)
	for _, it := range c.l.Items() {
		d := c.refinerOf(it.ID).RefineExact()
		dst = append(dst, knn.Result{Vertex: it.ID, Dist: d})
	}
	seg := dst[base:]
	slices.SortStableFunc(seg, func(a, b knn.Result) int { return cmp.Compare(a.Dist, b.Dist) })
	if len(seg) > c.k {
		dst = dst[:base+c.k]
	}
	return dst
}

// DBENN is the Distance Browsing variant of Appendix A.1.1 (Algorithm 2):
// candidates arrive from a suspendable Euclidean NN scan over an object
// R-tree instead of from an Object Hierarchy. It assumes travel-distance
// weights (Euclidean distance lower-bounds network distance), as DisBrw
// does throughout the paper.
type DBENN struct {
	x    *Index
	objs *knn.ObjectSet
	rt   *rtree.Tree

	// Reusable per-session search state: the Distance Browsing candidate
	// machinery and the suspendable Euclidean scan.
	c    candidates
	scan rtree.Scanner
}

// NewDBENN builds the method; the object R-tree is the decoupled object
// index (shared shape with IER, Section 7.4).
func NewDBENN(x *Index, objs *knn.ObjectSet) *DBENN {
	verts := objs.Vertices()
	pts := make([]geo.Point, len(verts))
	for i, v := range verts {
		pts[i] = geo.Point{X: x.G.X[v], Y: x.G.Y[v]}
	}
	m := &DBENN{x: x, objs: objs, rt: rtree.New(verts, pts, 0)}
	m.c.init(x)
	return m
}

// Name implements knn.Method.
func (m *DBENN) Name() string { return "DisBrw" }

// SetInterrupt implements knn.Interruptible.
func (m *DBENN) SetInterrupt(check func() bool) { m.c.interrupt = check }

// KNN implements knn.Method.
func (m *DBENN) KNN(qv int32, k int) []knn.Result {
	return m.KNNAppend(qv, k, make([]knn.Result, 0, k))
}

// KNNAppend implements knn.Method's zero-allocation form.
func (m *DBENN) KNNAppend(qv int32, k int, dst []knn.Result) []knn.Result {
	if k > m.objs.Len() {
		k = m.objs.Len()
	}
	if k == 0 {
		return dst
	}
	c := &m.c
	c.reset(qv, k)
	scan := &m.scan
	scan.Start(m.rt, geo.Point{X: m.x.G.X[qv], Y: m.x.G.Y[qv]})
	// Seed with the k Euclidean nearest neighbors, then suspend the scan.
	for i := 0; i < k; i++ {
		nb, ok := scan.Next()
		if !ok {
			break
		}
		c.processCandidate(nb.ID)
	}
	scanOpen := true
	for !c.interrupted() {
		peek := graph.Inf
		if scanOpen {
			p := scan.PeekDist()
			if math.IsInf(p, 1) {
				scanOpen = false
			} else {
				peek = graph.Dist(math.Floor(p))
				if peek >= c.dk {
					// No further Euclidean NN can beat the kth candidate.
					scanOpen = false
					peek = graph.Inf
				}
			}
		}
		if scanOpen && peek < graph.Dist(c.queue.MinKey()) {
			nb, ok := scan.Next()
			if !ok {
				scanOpen = false
				continue
			}
			c.processCandidate(nb.ID)
			continue
		}
		if c.queue.Empty() {
			if !scanOpen {
				break
			}
			continue
		}
		it := c.queue.Pop()
		o := it.ID
		lb := graph.Dist(it.Key)
		if r := c.refinerOf(o); graph.Dist(r.lb) != lb {
			continue // stale entry superseded by a refinement
		}
		if lb >= c.dk && c.l.Len() >= k {
			break // everything remaining is at least Dk away
		}
		c.handleObject(o, peek)
	}
	return c.resultsAppend(dst)
}

// DisBrw is the Object Hierarchy form of Distance Browsing (Algorithm 1):
// the queue additionally holds hierarchy nodes whose distance intervals are
// derived from the region's Euclidean extent and the lambda range of the
// SILC blocks it intersects.
type DisBrw struct {
	x  *Index
	oh *ObjectHierarchy

	// c is the reusable Distance Browsing candidate machinery.
	c candidates

	// ScannedBlocks counts SILC blocks scanned for node intervals in the
	// last query (the Object Hierarchy overhead of Appendix A.1.1).
	ScannedBlocks int
}

// NewDisBrw builds the method over an Object Hierarchy.
func NewDisBrw(x *Index, oh *ObjectHierarchy) *DisBrw {
	m := &DisBrw{x: x, oh: oh}
	m.c.init(x)
	return m
}

// Name implements knn.Method.
func (m *DisBrw) Name() string { return "DisBrw-OH" }

// SetInterrupt implements knn.Interruptible.
func (m *DisBrw) SetInterrupt(check func() bool) { m.c.interrupt = check }

// KNN implements knn.Method.
func (m *DisBrw) KNN(qv int32, k int) []knn.Result {
	return m.KNNAppend(qv, k, make([]knn.Result, 0, k))
}

// KNNAppend implements knn.Method's zero-allocation form.
func (m *DisBrw) KNNAppend(qv int32, k int, dst []knn.Result) []knn.Result {
	if k > len(m.oh.objs) {
		k = len(m.oh.objs)
	}
	if k == 0 {
		return dst
	}
	m.ScannedBlocks = 0
	c := &m.c
	c.reset(qv, k)
	qpt := geo.Point{X: m.x.G.X[qv], Y: m.x.G.Y[qv]}
	c.queue.Push(encodeOH(0), 0)

	for !c.queue.Empty() && !c.interrupted() {
		it := c.queue.Pop()
		lb := graph.Dist(it.Key)
		if lb >= c.dk && c.l.Len() >= k {
			break
		}
		if !isOHNode(it.ID) {
			o := it.ID
			if r := c.refinerOf(o); graph.Dist(r.lb) != lb {
				continue
			}
			c.handleObject(o, graph.Inf)
			continue
		}
		ni := decodeOH(it.ID)
		node := &m.oh.nodes[ni]
		if node.isLeaf() {
			for _, o := range m.oh.objs[node.lo:node.hi] {
				// Cheap O(1) Euclidean prune before any interval work
				// (the Appendix A.1 insert-pruning improvement).
				if elb := m.x.G.EuclidLB(qv, o); graph.Dist(elb) >= c.dk {
					continue
				}
				c.processCandidate(o)
			}
			continue
		}
		for _, ch := range node.children {
			cn := &m.oh.nodes[ch]
			clb, cub, scanned := m.nodeInterval(qv, qpt, cn)
			m.ScannedBlocks += scanned
			if clb < c.dk {
				c.queue.Push(encodeOH(ch), int64(clb))
			}
			// Upper bounds for nodes holding >= k objects tighten Dk early
			// (the Appendix A.1 node upper-bound improvement).
			if int(cn.hi-cn.lo) >= k && cub < c.dk {
				c.dk = cub
			}
		}
	}
	return c.resultsAppend(dst)
}

// nodeInterval bounds the network distance from q to any object of node cn:
// Euclidean min/max to the node's bounding rectangle scaled by the lambda
// range of the SILC blocks covering the node's Morton rank span.
func (m *DisBrw) nodeInterval(qv int32, qpt geo.Point, cn *ohNode) (lb, ub graph.Dist, scanned int) {
	lamLo, lamHi, scanned := m.x.LambdaRange(qv, cn.loRank, cn.hiRank)
	dmin := cn.rect.MinDist(qpt)
	dmax := cn.rect.MaxDist(qpt)
	lb = graph.Dist(math.Floor(dmin * lamLo))
	ub = graph.Dist(math.Ceil(dmax * lamHi))
	if ub > graph.Inf {
		ub = graph.Inf
	}
	return lb, ub, scanned
}

func encodeOH(ni int32) int32 { return -(ni + 1) }
func decodeOH(id int32) int32 { return -id - 1 }
func isOHNode(id int32) bool  { return id < 0 }

// ObjectHierarchy is the quadtree-like hierarchy over an object set used by
// Algorithm 1: objects sorted by Morton rank, recursively split into four
// contiguous runs, each node carrying its exact bounding rectangle, object
// range and Morton rank span.
type ObjectHierarchy struct {
	objs  []int32 // object vertices sorted by Morton rank
	nodes []ohNode
}

type ohNode struct {
	lo, hi         int32 // object range [lo, hi)
	loRank, hiRank int32 // Morton rank span of the range
	rect           geo.Rect
	children       []int32
}

func (n *ohNode) isLeaf() bool { return len(n.children) == 0 }

// DefaultOHLeafCap is the Object Hierarchy leaf capacity; the paper found
// shallow hierarchies with ~500-object leaves performed best overall.
const DefaultOHLeafCap = 500

// NewObjectHierarchy builds the hierarchy for objs (leafCap 0 means
// DefaultOHLeafCap).
func (x *Index) NewObjectHierarchy(objs *knn.ObjectSet, leafCap int) *ObjectHierarchy {
	if leafCap <= 0 {
		leafCap = DefaultOHLeafCap
	}
	verts := append([]int32(nil), objs.Vertices()...)
	sort.Slice(verts, func(a, b int) bool { return x.rank[verts[a]] < x.rank[verts[b]] })
	oh := &ObjectHierarchy{objs: verts}
	var build func(lo, hi int32) int32
	build = func(lo, hi int32) int32 {
		n := ohNode{lo: lo, hi: hi, rect: geo.EmptyRect()}
		n.loRank = x.rank[verts[lo]]
		n.hiRank = x.rank[verts[hi-1]]
		for _, v := range verts[lo:hi] {
			n.rect = n.rect.Expand(geo.Point{X: x.G.X[v], Y: x.G.Y[v]})
		}
		id := int32(len(oh.nodes))
		oh.nodes = append(oh.nodes, n)
		if int(hi-lo) > leafCap {
			quarter := (hi - lo + 3) / 4
			var children []int32
			for s := lo; s < hi; s += quarter {
				e := s + quarter
				if e > hi {
					e = hi
				}
				children = append(children, build(s, e))
			}
			oh.nodes[id].children = children
		}
		return id
	}
	if len(verts) > 0 {
		build(0, int32(len(verts)))
	}
	return oh
}

// SizeBytes estimates the hierarchy's footprint.
func (oh *ObjectHierarchy) SizeBytes() int {
	total := len(oh.objs) * 4
	total += len(oh.nodes) * (4*4 + 4*8)
	for i := range oh.nodes {
		total += len(oh.nodes[i].children) * 4
	}
	return total
}
