// Package rtree implements an in-memory R-tree over road-network vertices,
// bulk-loaded with Sort-Tile-Recursive packing. It supports the suspendable
// incremental Euclidean nearest-neighbor search that drives IER (Section
// 3.2) and the DB-ENN variant of Distance Browsing (Appendix A.1.1), and it
// doubles as the object index whose size and build time Figure 18 measures.
//
// The tree is dynamic: Insert adds an entry with the classic choose-subtree
// plus node-split descent, Delete removes one lazily (no re-insertion, no
// MBR shrinking), and once the entries inserted since the last STR pack and
// still present, plus the packed entries since deleted, pass a share of the
// live count, the tree repacks itself with STR — so query quality returns
// to bulk-loaded form no matter how long the churn ran, while churn that
// puts the set back the way it was packed costs no repack.
//
// Versions are persistent: Clone derives the next version in O(1), sharing
// every node with its source, and a mutation of the clone path-copies — it
// copies each node on the root-to-leaf paths it touches once per Clone and
// shares the rest. Nodes are plain pointers, so a copy no version reaches
// any more is garbage: nothing counts or compacts orphans.
package rtree

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"rnknn/internal/geo"
	"rnknn/internal/pqueue"
)

// DefaultNodeCap is the default R-tree node capacity. The paper tuned node
// capacity for best Euclidean kNN performance (Section 7.4).
const DefaultNodeCap = 16

// Rebuild trigger: once the net degradation since the last STR pack —
// entries inserted since and still present, plus packed entries since
// deleted — reaches both rebuildMinOps and half the live entry count, the
// next update repacks the whole tree. Half the set is far beyond any
// realistic degradation point, but the precise constant matters little:
// what matters is that the amortized repack cost per update stays O(log n)
// while quality is bounded.
const (
	rebuildMinOps  = 64
	rebuildDivisor = 2
)

// Tree is an R-tree over a set of points, each carrying a non-negative
// user identifier (the road-network vertex of an object). New bulk-loads
// with STR; Insert and Delete update it in place. Readers (scans) and
// writers must not run concurrently on the same Tree — epoch-sharing
// callers mutate only fresh Clones.
type Tree struct {
	nodeCap int
	root    *node // nil when the tree is empty
	// gen is the generation this version writes its nodes with: a node
	// whose gen equals it was written by this version since its last
	// Clone and may be changed in place; any other node may be shared and
	// is copied before a write. 0 means this version owns no node yet.
	gen   uint64
	count int // live entries
	// fresh counts entries inserted since the last STR pack and still
	// present, gone the packed entries since deleted: the net degradation
	// the repack trigger reads.
	fresh, gone int
	// rebuilds counts degradation-triggered STR repacks (observability).
	rebuilds int
}

// generations issues the versions' write generations. It is shared by
// every tree, and trees of different object sets are derived on different
// goroutines, so it is atomic.
var generations atomic.Uint64

// node is one R-tree node. Leaves carry entries, internal nodes carry
// their children. A node's slices are private to the version that wrote
// it.
type node struct {
	rect     geo.Rect
	gen      uint64
	leaf     bool
	children []*node
	ents     []entry
}

// entry is one indexed point.
type entry struct {
	pt geo.Point
	id int32
	// fresh marks an entry inserted since the last STR pack.
	fresh bool
}

// New bulk-loads an R-tree from parallel id/point slices using STR packing
// with the given node capacity (0 means DefaultNodeCap).
func New(ids []int32, pts []geo.Point, nodeCap int) *Tree {
	if len(ids) != len(pts) {
		panic("rtree: ids and pts length mismatch")
	}
	if nodeCap <= 1 {
		nodeCap = DefaultNodeCap
	}
	ents := make([]entry, len(ids))
	for i := range ents {
		ents[i] = entry{pt: pts[i], id: ids[i]}
	}
	t := &Tree{nodeCap: nodeCap}
	t.bulkLoad(ents)
	return t
}

// bulkLoad STR-packs the given entries into nodes owned by t, replacing
// any existing structure. It takes ownership of ents. The packed nodes
// share one array and the leaves sub-slice ents, so a packed node a
// version no longer reaches is freed with the last one it still does —
// never more than one pack's worth.
func (t *Tree) bulkLoad(ents []entry) {
	t.root = nil
	t.gen = generations.Add(1)
	t.count, t.fresh, t.gone = len(ents), 0, 0
	if len(ents) == 0 {
		return
	}
	strOrder(ents, t.nodeCap)
	for i := range ents {
		ents[i].fresh = false
	}
	// The pack makes ceil(n/cap) leaves, then ceil(width/cap) nodes per
	// level up to the root: all of them fit in one array.
	total := 0
	for width := len(ents); ; {
		width = (width + t.nodeCap - 1) / t.nodeCap
		total += width
		if width == 1 {
			break
		}
	}
	packed := make([]node, 0, total)
	pack := func(n node) *node {
		n.gen = t.gen
		packed = append(packed, n)
		return &packed[len(packed)-1]
	}

	// Build leaf level. Sub-slicing with a capacity clamp keeps the packed
	// backing array shared until an insert copies a node's entries out.
	var level []*node
	for start := 0; start < len(ents); start += t.nodeCap {
		end := min(start+t.nodeCap, len(ents))
		r := geo.EmptyRect()
		for _, e := range ents[start:end] {
			r = r.Expand(e.pt)
		}
		level = append(level, pack(node{rect: r, leaf: true, ents: ents[start:end:end]}))
	}
	// Build internal levels until a single root remains, each STR-ordered
	// by node centre (an entry whose id is the node's position in the
	// level) before grouping.
	items := make([]entry, len(level))
	for len(level) > 1 {
		items = items[:len(level)]
		for i, n := range level {
			r := n.rect
			items[i] = entry{pt: geo.Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}, id: int32(i)}
		}
		strOrder(items, t.nodeCap)
		ordered := make([]*node, len(level))
		for i, it := range items {
			ordered[i] = level[it.id]
		}
		level = level[:0]
		for start := 0; start < len(ordered); start += t.nodeCap {
			end := min(start+t.nodeCap, len(ordered))
			r := geo.EmptyRect()
			for _, c := range ordered[start:end] {
				r = r.Union(c.rect)
			}
			level = append(level, pack(node{rect: r, children: ordered[start:end:end]}))
		}
	}
	t.root = level[0]
}

// Len returns the number of live (non-deleted) entries.
func (t *Tree) Len() int { return t.count }

// Nodes returns the number of nodes the tree reaches from its root.
func (t *Tree) Nodes() int {
	n := 0
	t.walk(func(*node) { n++ })
	return n
}

// walk calls visit on every node t reaches, parents before children.
func (t *Tree) walk(visit func(*node)) {
	var rec func(n *node)
	rec = func(n *node) {
		visit(n)
		for _, c := range n.children {
			rec(c)
		}
	}
	if t.root != nil {
		rec(t.root)
	}
}

// Rebuilds reports how many degradation-triggered STR repacks the tree has
// performed.
func (t *Tree) Rebuilds() int { return t.rebuilds }

// Clone derives the next version of the tree in O(1): it shares every node
// with t, and its mutations copy each node they write once, so mutating the
// clone never changes what a reader of t observes — the property the
// epoch-versioned object store relies on (each epoch's tree is a Clone of
// the previous epoch's). Cloning t again, or mutating t afterwards, is
// allowed too: t gives up its nodes to the clone, so its own next write
// copies as well. Giving them up writes t's generation (Freeze), which no
// scan reads, so t may be scanned meanwhile but not mutated; a frozen tree
// may also be cloned from several goroutines at once.
func (t *Tree) Clone() *Tree {
	c := *t
	c.gen = 0
	t.Freeze()
	return &c
}

// Freeze makes t give up its nodes as a Clone does, so its next write
// copies what it touches. A tree not written since it was last frozen is
// left untouched: Clone writes nothing to it either.
func (t *Tree) Freeze() {
	if t.gen != 0 {
		t.gen = 0
	}
}

// writable returns a node t may change in place holding what n holds: n
// itself when this version wrote it, otherwise a copy. The caller points
// n's parent (or the root) at the returned node.
func (t *Tree) writable(n *node) *node {
	if t.gen != 0 && n.gen == t.gen {
		return n
	}
	c := *n
	c.gen = t.writeGen()
	if c.leaf {
		c.ents = append(make([]entry, 0, len(n.ents)+1), n.ents...)
	} else {
		c.children = append(make([]*node, 0, len(n.children)+1), n.children...)
	}
	return &c
}

// writeGen returns t's write generation, drawing a new one on t's first
// write since it was cloned or gave its nodes to a clone.
func (t *Tree) writeGen() uint64 {
	if t.gen == 0 {
		t.gen = generations.Add(1)
	}
	return t.gen
}

// SizeBytes estimates the in-memory footprint of the nodes the tree
// reaches.
func (t *Tree) SizeBytes() int {
	total := 0
	t.walk(func(n *node) { total += nodeBytes + len(n.children)*8 + len(n.ents)*entryBytes })
	return total
}

// nodeBytes is the fixed per-node overhead: rect, generation, leaf flag
// and two slice headers; entryBytes one entry: point, id and flag, padded.
const (
	nodeBytes  = 4*8 + 8 + 8 + 2*24
	entryBytes = 24
)

// Insert adds one entry. Entry ids need not be unique for the tree itself,
// but Delete matches by id, so callers (object indexes keyed by vertex)
// keep them unique. Amortized cost is O(log n) choose-subtree work plus
// O(nodeCap) copying per node on the path; occasionally an STR repack runs
// when accumulated updates degrade the packing (see Rebuilds).
func (t *Tree) Insert(id int32, pt geo.Point) {
	e := entry{pt: pt, id: id, fresh: true}
	t.count++
	t.fresh++
	if t.root == nil {
		t.root = &node{rect: geo.EmptyRect().Expand(pt), gen: t.writeGen(), leaf: true, ents: []entry{e}}
		return
	}
	t.root = t.writable(t.root)
	if sib := t.insert(t.root, e); sib != nil {
		// Root split: a new root adopts the old root and its sibling.
		r := t.root.rect.Union(sib.rect)
		t.root = &node{rect: r, gen: t.gen, children: []*node{t.root, sib}}
	}
	t.maybeRebuild()
}

// insert descends from n, a node t may write, to the best leaf, growing
// rects on the way down, and returns a split-off sibling (nil if no split
// propagates).
func (t *Tree) insert(n *node, e entry) *node {
	n.rect = n.rect.Expand(e.pt)
	if n.leaf {
		n.ents = append(n.ents, e)
		if len(n.ents) > t.nodeCap {
			return t.splitLeaf(n)
		}
		return nil
	}
	ci := chooseChild(n.children, e.pt)
	c := t.writable(n.children[ci])
	n.children[ci] = c
	if sib := t.insert(c, e); sib != nil {
		n.children = append(n.children, sib)
		if len(n.children) > t.nodeCap {
			return t.splitInternal(n)
		}
	}
	return nil
}

// chooseChild picks the child whose rect needs the least area enlargement
// to cover pt, breaking ties by smaller area (Guttman's criterion).
func chooseChild(children []*node, pt geo.Point) int {
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	for i, c := range children {
		r := c.rect
		a := area(r)
		enl := area(r.Expand(pt)) - a
		if enl < bestEnl || (enl == bestEnl && a < bestArea) {
			best, bestEnl, bestArea = i, enl, a
		}
	}
	return best
}

func area(r geo.Rect) float64 { return (r.MaxX - r.MinX) * (r.MaxY - r.MinY) }

// splitLeaf splits an overflowing leaf, which t wrote, along its longer
// axis at the entry median: the lower half stays in place and the upper
// half moves to a new sibling, which it returns.
func (t *Tree) splitLeaf(n *node) *node {
	byY := n.rect.MaxY-n.rect.MinY > n.rect.MaxX-n.rect.MinX
	slices.SortFunc(n.ents, func(a, b entry) int {
		if byY {
			return cmp.Compare(a.pt.Y, b.pt.Y)
		}
		return cmp.Compare(a.pt.X, b.pt.X)
	})
	mid := len(n.ents) / 2
	high := &node{gen: t.gen, leaf: true, ents: slices.Clone(n.ents[mid:])}
	n.ents = n.ents[:mid]
	n.rect, high.rect = geo.EmptyRect(), geo.EmptyRect()
	for _, e := range n.ents {
		n.rect = n.rect.Expand(e.pt)
	}
	for _, e := range high.ents {
		high.rect = high.rect.Expand(e.pt)
	}
	return high
}

// splitInternal splits an overflowing internal node by child-rect centers
// along the node's longer axis, mirroring splitLeaf.
func (t *Tree) splitInternal(n *node) *node {
	byY := n.rect.MaxY-n.rect.MinY > n.rect.MaxX-n.rect.MinX
	slices.SortFunc(n.children, func(a, b *node) int {
		if byY {
			return cmp.Compare(a.rect.MinY+a.rect.MaxY, b.rect.MinY+b.rect.MaxY)
		}
		return cmp.Compare(a.rect.MinX+a.rect.MaxX, b.rect.MinX+b.rect.MaxX)
	})
	mid := len(n.children) / 2
	high := &node{gen: t.gen, children: slices.Clone(n.children[mid:])}
	n.children = n.children[:mid]
	n.rect, high.rect = geo.EmptyRect(), geo.EmptyRect()
	for _, c := range n.children {
		n.rect = n.rect.Union(c.rect)
	}
	for _, c := range high.children {
		high.rect = high.rect.Union(c.rect)
	}
	return high
}

// Delete removes the entry with the given id, where pt is the point the id
// was inserted with (deletion descends only subtrees whose rect covers pt).
// The removal is lazy in the R-tree sense: no re-insertion, no MBR
// shrinking, underfull nodes stay — degradation is bounded by the periodic
// STR repack instead. Reports whether the entry was present.
func (t *Tree) Delete(id int32, pt geo.Point) bool {
	if t.root == nil {
		return false
	}
	root := t.delete(t.root, id, pt)
	if root == nil {
		return false
	}
	t.root = root
	t.count--
	t.maybeRebuild()
	return true
}

// delete removes id from the subtree at n and returns the node n is
// afterwards (a copy when t shared it), or nil when the subtree does not
// hold id. Only the nodes on the path to the entry are copied.
func (t *Tree) delete(n *node, id int32, pt geo.Point) *node {
	if !n.rect.Contains(pt) {
		return nil
	}
	if n.leaf {
		i := slices.IndexFunc(n.ents, func(e entry) bool { return e.id == id })
		if i < 0 {
			return nil
		}
		w := t.writable(n)
		if w.ents[i].fresh {
			t.fresh--
		} else {
			t.gone++
		}
		w.ents = slices.Delete(w.ents, i, i+1)
		return w
	}
	for i, c := range n.children {
		if w := t.delete(c, id, pt); w != nil {
			p := t.writable(n)
			p.children[i] = w
			return p
		}
	}
	return nil
}

// maybeRebuild repacks the tree with STR once the net degradation passes
// the threshold, restoring bulk-loaded query quality.
func (t *Tree) maybeRebuild() {
	if d := t.fresh + t.gone; d < rebuildMinOps || d*rebuildDivisor < t.count {
		return
	}
	ents := make([]entry, 0, t.count)
	t.walk(func(n *node) { ents = append(ents, n.ents...) })
	t.bulkLoad(ents)
	t.rebuilds++
}

// strOrder sorts items into Sort-Tile-Recursive order: by x, then cut into
// ceil(sqrt(groups)) vertical slabs, each a whole number of groups of cap
// items, and each slab sorted by y. Grouping the ordered items cap at a
// time then tiles every slab and no group straddles two.
func strOrder(items []entry, cap int) {
	n := len(items)
	groups := (n + cap - 1) / cap
	slabs := int(math.Ceil(math.Sqrt(float64(groups))))
	slabSize := (groups + slabs - 1) / slabs * cap
	slices.SortFunc(items, func(a, b entry) int { return cmp.Compare(a.pt.X, b.pt.X) })
	for s := 0; s < n; s += slabSize {
		slices.SortFunc(items[s:min(s+slabSize, n)], func(a, b entry) int { return cmp.Compare(a.pt.Y, b.pt.Y) })
	}
}

// Neighbor is one result of a Euclidean nearest-neighbor scan.
type Neighbor struct {
	ID   int32
	Dist float64
}

// Scanner is a suspendable best-first incremental nearest-neighbor search
// (Hjaltason & Samet). Next returns neighbors in nondecreasing Euclidean
// distance; the scan retains its priority queue between calls, which is the
// property IER's candidate loop relies on. A Scanner reads the Tree it was
// created from and must not outlive concurrent mutations of that same Tree
// value; epoch-sharing callers scan a pinned Clone that is never mutated.
//
// The queue is a pqueue.Queue keyed by distKey. A point entry is queued
// under its own id, which is a vertex and so non-negative; a node under
// -(i+1), where i is its slot in nodes, the encoding G-tree's search uses.
type Scanner struct {
	from  geo.Point
	q     pqueue.Queue
	nodes []*node
}

// distKey is the queue key of a Euclidean distance d >= 0: the bits of
// non-negative floats order as the floats do (see pqueue's key domain).
func distKey(d float64) int64 { return int64(math.Float64bits(d)) }

// NewScan starts an incremental Euclidean NN scan from p.
func (t *Tree) NewScan(p geo.Point) *Scanner {
	s := &Scanner{}
	s.Start(t, p)
	return s
}

// Start (re)initializes s as a scan of t from p, retaining the queue's
// backing arrays — the reuse hook that lets a query session keep one
// Scanner for its lifetime instead of allocating one per query.
func (s *Scanner) Start(t *Tree, p geo.Point) {
	s.from = p
	s.q.Reset()
	s.nodes = s.nodes[:0]
	if t.root != nil {
		s.queueNode(t.root)
	}
}

// queueNode queues n at its rect's distance from the scan's origin.
func (s *Scanner) queueNode(n *node) {
	s.nodes = append(s.nodes, n)
	s.q.Push(int32(-len(s.nodes)), distKey(n.rect.MinDist(s.from)))
}

// PeekDist returns the lower bound on the distance of the next neighbor, or
// +Inf when the scan is exhausted. The bound is exact when the head of the
// queue is a point.
func (s *Scanner) PeekDist() float64 {
	if s.q.Empty() {
		return math.Inf(1)
	}
	return math.Float64frombits(uint64(s.q.MinKey()))
}

// Next returns the next nearest neighbor, or ok=false when exhausted.
func (s *Scanner) Next() (Neighbor, bool) {
	for !s.q.Empty() {
		it := s.q.Pop()
		if it.ID >= 0 {
			return Neighbor{ID: it.ID, Dist: math.Float64frombits(uint64(it.Key))}, true
		}
		n := s.nodes[-it.ID-1]
		for _, e := range n.ents {
			s.q.Push(e.id, distKey(s.from.Dist(e.pt)))
		}
		for _, c := range n.children {
			s.queueNode(c)
		}
	}
	return Neighbor{}, false
}

// KNearest returns the k Euclidean nearest neighbors of p (fewer if the tree
// holds fewer points).
func (t *Tree) KNearest(p geo.Point, k int) []Neighbor {
	s := t.NewScan(p)
	out := make([]Neighbor, 0, k)
	for len(out) < k {
		n, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, n)
	}
	return out
}
