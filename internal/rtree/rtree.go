// Package rtree implements an in-memory R-tree over road-network vertices,
// bulk-loaded with Sort-Tile-Recursive packing. It supports the suspendable
// incremental Euclidean nearest-neighbor search that drives IER (Section
// 3.2) and the DB-ENN variant of Distance Browsing (Appendix A.1.1), and it
// doubles as the object index whose size and build time Figure 18 measures.
//
// The tree is dynamic: Insert adds an entry with the classic choose-subtree
// plus node-split descent, Delete removes one lazily (no re-insertion, no
// MBR shrinking), and once enough updates have accumulated relative to the
// live entry count the tree repacks itself with STR — so query quality
// returns to bulk-loaded form no matter how long the churn ran. Clone
// derives an independent copy in one memcpy of the node array; every
// structural mutation copies the bounded per-node slices before writing
// (copy-on-write), which is what lets an epoch-versioned object store share
// all untouched nodes between the old and new epoch.
package rtree

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"rnknn/internal/geo"
)

// DefaultNodeCap is the default R-tree node capacity. The paper tuned node
// capacity for best Euclidean kNN performance (Section 7.4).
const DefaultNodeCap = 16

// Rebuild trigger: once the updates applied since the last STR pack reach
// both rebuildMinOps and half the live entry count, the next update repacks
// the whole tree. Half the set is far beyond any realistic degradation
// point, but the precise constant matters little: what matters is that the
// amortized repack cost per update stays O(log n) while quality is bounded.
const (
	rebuildMinOps  = 64
	rebuildDivisor = 2
)

// Tree is an R-tree over a set of points, each carrying a user identifier
// (the road-network vertex of an object). New bulk-loads with STR; Insert
// and Delete update it in place. Readers (scans) and writers must not run
// concurrently on the same Tree — epoch-sharing callers mutate only fresh
// Clones.
type Tree struct {
	nodeCap int
	root    int32 // -1 when the tree is empty
	nodes   []node
	count   int // live entries
	dirty   int // updates since the last STR pack
	// rebuilds counts degradation-triggered STR repacks (observability).
	rebuilds int
}

// node is one R-tree node. Leaves carry entries (ids/pts), internal nodes
// carry child node indexes; both slices are bounded by nodeCap+1 and are
// replaced wholesale on mutation (copy-on-write), never appended in place.
type node struct {
	rect     geo.Rect
	leaf     bool
	children []int32
	ids      []int32
	pts      []geo.Point
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
	t := &Tree{nodeCap: nodeCap, root: -1}
	t.bulkLoad(append([]int32(nil), ids...), append([]geo.Point(nil), pts...))
	return t
}

// bulkLoad STR-packs the given entries into t, replacing any existing
// structure. It takes ownership of ids and pts.
func (t *Tree) bulkLoad(ids []int32, pts []geo.Point) {
	t.nodes = nil
	t.root = -1
	t.count = len(ids)
	t.dirty = 0
	if len(ids) == 0 {
		return
	}
	items := make([]strItem, len(ids))
	for i := range items {
		items[i] = strItem{pts[i], int32(i)}
	}
	strOrder(items, t.nodeCap)
	sorted := make([]int32, len(ids))
	for i, it := range items {
		pts[i], sorted[i] = it.pt, ids[it.i]
	}
	ids = sorted

	// Build leaf level. Sub-slicing with a capacity clamp keeps the packed
	// backing arrays shared until a mutation copies a node's slice out.
	var level []int32 // node indexes of the current level
	for start := 0; start < len(ids); start += t.nodeCap {
		end := start + t.nodeCap
		if end > len(ids) {
			end = len(ids)
		}
		r := geo.EmptyRect()
		for _, p := range pts[start:end] {
			r = r.Expand(p)
		}
		t.nodes = append(t.nodes, node{
			rect: r,
			leaf: true,
			ids:  ids[start:end:end],
			pts:  pts[start:end:end],
		})
		level = append(level, int32(len(t.nodes)-1))
	}
	// Build internal levels until a single root remains, each STR-ordered
	// by node centre before grouping.
	for len(level) > 1 {
		items = items[:len(level)]
		for i, ni := range level {
			r := t.nodes[ni].rect
			items[i] = strItem{geo.Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}, ni}
		}
		strOrder(items, t.nodeCap)
		for i, it := range items {
			level[i] = it.i
		}
		var next []int32
		for start := 0; start < len(level); start += t.nodeCap {
			end := start + t.nodeCap
			if end > len(level) {
				end = len(level)
			}
			r := geo.EmptyRect()
			for _, ni := range level[start:end] {
				r = r.Union(t.nodes[ni].rect)
			}
			t.nodes = append(t.nodes, node{
				rect:     r,
				children: level[start:end:end],
			})
			next = append(next, int32(len(t.nodes)-1))
		}
		level = next
	}
	t.root = level[0]
}

// Len returns the number of live (non-deleted) entries.
func (t *Tree) Len() int { return t.count }

// Rebuilds reports how many degradation-triggered STR repacks the tree has
// performed.
func (t *Tree) Rebuilds() int { return t.rebuilds }

// Clone returns an independent copy of the tree: one memcpy of the node
// array, with every per-node entry and child slice shared until a mutation
// copies it out. Mutating the clone never changes what a reader of the
// original observes, which is the property the epoch-versioned object store
// relies on (each epoch's tree is a Clone of the previous epoch's).
func (t *Tree) Clone() *Tree {
	c := *t
	c.nodes = append([]node(nil), t.nodes...)
	return &c
}

// SizeBytes estimates the in-memory footprint of the tree.
func (t *Tree) SizeBytes() int {
	total := len(t.nodes) * nodeBytes
	for i := range t.nodes {
		n := &t.nodes[i]
		total += len(n.children)*4 + len(n.ids)*4 + len(n.pts)*16
	}
	return total
}

// nodeBytes is the fixed per-node overhead: rect + leaf flag + three slice
// headers.
const nodeBytes = 4*8 + 8 + 3*24

// Insert adds one entry. Entry ids need not be unique for the tree itself,
// but Delete matches by id, so callers (object indexes keyed by vertex)
// keep them unique. Amortized cost is O(log n) choose-subtree work plus
// O(nodeCap) copying; occasionally an STR repack runs when accumulated
// updates degrade the packing (see Rebuilds).
func (t *Tree) Insert(id int32, pt geo.Point) {
	if t.root < 0 {
		t.nodes = append(t.nodes, node{
			rect: geo.EmptyRect().Expand(pt),
			leaf: true,
			ids:  []int32{id},
			pts:  []geo.Point{pt},
		})
		t.root = int32(len(t.nodes) - 1)
		t.count++
		return
	}
	sib := t.insert(t.root, id, pt)
	if sib >= 0 {
		// Root split: a new root adopts the old root and its sibling.
		r := t.nodes[t.root].rect.Union(t.nodes[sib].rect)
		t.nodes = append(t.nodes, node{rect: r, children: []int32{t.root, sib}})
		t.root = int32(len(t.nodes) - 1)
	}
	t.count++
	t.dirty++
	t.maybeRebuild()
}

// insert descends to the best leaf, growing rects on the way down, and
// returns the index of a split-off sibling (-1 if no split propagates).
func (t *Tree) insert(ni, id int32, pt geo.Point) int32 {
	t.nodes[ni].rect = t.nodes[ni].rect.Expand(pt)
	if t.nodes[ni].leaf {
		n := &t.nodes[ni]
		n.ids = cowAppend32(n.ids, id)
		n.pts = cowAppendPt(n.pts, pt)
		if len(n.ids) > t.nodeCap {
			return t.splitLeaf(ni)
		}
		return -1
	}
	ci := chooseChild(t.nodes, t.nodes[ni].children, pt)
	sib := t.insert(t.nodes[ni].children[ci], id, pt)
	if sib >= 0 {
		// Re-take the node after the recursive call: splits append to
		// t.nodes, which may have moved the backing array.
		n := &t.nodes[ni]
		n.children = cowAppend32(n.children, sib)
		if len(n.children) > t.nodeCap {
			return t.splitInternal(ni)
		}
	}
	return -1
}

// chooseChild picks the child whose rect needs the least area enlargement
// to cover pt, breaking ties by smaller area (Guttman's criterion).
func chooseChild(nodes []node, children []int32, pt geo.Point) int {
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	for i, c := range children {
		r := nodes[c].rect
		a := area(r)
		enl := area(r.Expand(pt)) - a
		if enl < bestEnl || (enl == bestEnl && a < bestArea) {
			best, bestEnl, bestArea = i, enl, a
		}
	}
	return best
}

func area(r geo.Rect) float64 { return (r.MaxX - r.MinX) * (r.MaxY - r.MinY) }

// splitLeaf splits an overflowing leaf along its longer axis at the entry
// median, keeps the lower half in place and returns the new sibling's index.
func (t *Tree) splitLeaf(ni int32) int32 {
	n := &t.nodes[ni]
	ids := append([]int32(nil), n.ids...)
	pts := append([]geo.Point(nil), n.pts...)
	byY := n.rect.MaxY-n.rect.MinY > n.rect.MaxX-n.rect.MinX
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if byY {
			return pts[order[a]].Y < pts[order[b]].Y
		}
		return pts[order[a]].X < pts[order[b]].X
	})
	mid := len(order) / 2
	lowIDs, lowPts, lowRect := pickEntries(ids, pts, order[:mid])
	highIDs, highPts, highRect := pickEntries(ids, pts, order[mid:])

	t.nodes = append(t.nodes, node{rect: highRect, leaf: true, ids: highIDs, pts: highPts})
	n = &t.nodes[ni] // the append above may have moved the array
	n.ids, n.pts, n.rect = lowIDs, lowPts, lowRect
	return int32(len(t.nodes) - 1)
}

func pickEntries(ids []int32, pts []geo.Point, order []int) ([]int32, []geo.Point, geo.Rect) {
	outIDs := make([]int32, len(order))
	outPts := make([]geo.Point, len(order))
	r := geo.EmptyRect()
	for i, j := range order {
		outIDs[i] = ids[j]
		outPts[i] = pts[j]
		r = r.Expand(pts[j])
	}
	return outIDs, outPts, r
}

// splitInternal splits an overflowing internal node by child-rect centers
// along the node's longer axis, mirroring splitLeaf.
func (t *Tree) splitInternal(ni int32) int32 {
	n := &t.nodes[ni]
	children := append([]int32(nil), n.children...)
	byY := n.rect.MaxY-n.rect.MinY > n.rect.MaxX-n.rect.MinX
	sort.Slice(children, func(a, b int) bool {
		ra, rb := t.nodes[children[a]].rect, t.nodes[children[b]].rect
		if byY {
			return ra.MinY+ra.MaxY < rb.MinY+rb.MaxY
		}
		return ra.MinX+ra.MaxX < rb.MinX+rb.MaxX
	})
	mid := len(children) / 2
	low := children[:mid:mid]
	high := children[mid:]
	lowRect, highRect := geo.EmptyRect(), geo.EmptyRect()
	for _, c := range low {
		lowRect = lowRect.Union(t.nodes[c].rect)
	}
	for _, c := range high {
		highRect = highRect.Union(t.nodes[c].rect)
	}
	t.nodes = append(t.nodes, node{rect: highRect, children: high})
	n = &t.nodes[ni]
	n.children, n.rect = low, lowRect
	return int32(len(t.nodes) - 1)
}

// Delete removes the entry with the given id, where pt is the point the id
// was inserted with (deletion descends only subtrees whose rect covers pt).
// The removal is lazy in the R-tree sense: no re-insertion, no MBR
// shrinking, underfull nodes stay — degradation is bounded by the periodic
// STR repack instead. Reports whether the entry was present.
func (t *Tree) Delete(id int32, pt geo.Point) bool {
	if t.root < 0 || !t.delete(t.root, id, pt) {
		return false
	}
	t.count--
	t.dirty++
	t.maybeRebuild()
	return true
}

func (t *Tree) delete(ni, id int32, pt geo.Point) bool {
	n := &t.nodes[ni]
	if !n.rect.Contains(pt) {
		return false
	}
	if n.leaf {
		for i, eid := range n.ids {
			if eid == id {
				n.ids = cowRemove32(n.ids, i)
				n.pts = cowRemovePt(n.pts, i)
				return true
			}
		}
		return false
	}
	for _, c := range n.children {
		if t.delete(c, id, pt) {
			return true
		}
	}
	return false
}

// maybeRebuild repacks the tree with STR once accumulated updates pass the
// degradation threshold, restoring bulk-loaded query quality.
func (t *Tree) maybeRebuild() {
	if t.dirty < rebuildMinOps || t.dirty*rebuildDivisor < t.count {
		return
	}
	ids := make([]int32, 0, t.count)
	pts := make([]geo.Point, 0, t.count)
	for i := range t.nodes {
		if t.nodes[i].leaf {
			ids = append(ids, t.nodes[i].ids...)
			pts = append(pts, t.nodes[i].pts...)
		}
	}
	t.bulkLoad(ids, pts)
	t.rebuilds++
}

// cowAppend32 and friends implement the copy-before-write discipline every
// node mutation follows: the source slice (possibly shared with a cloned
// epoch) is never written, a fresh bounded slice replaces it. Nodes hold at
// most nodeCap+1 entries, so each copy is O(nodeCap).
func cowAppend32(s []int32, v int32) []int32 {
	out := make([]int32, len(s)+1)
	copy(out, s)
	out[len(s)] = v
	return out
}

func cowAppendPt(s []geo.Point, v geo.Point) []geo.Point {
	out := make([]geo.Point, len(s)+1)
	copy(out, s)
	out[len(s)] = v
	return out
}

func cowRemove32(s []int32, i int) []int32 {
	out := make([]int32, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

func cowRemovePt(s []geo.Point, i int) []geo.Point {
	out := make([]geo.Point, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

// strItem is one entry STR orders: a point and what it stands for (an
// entry's index, or a node by its centre).
type strItem struct {
	pt geo.Point
	i  int32
}

// strOrder sorts items into Sort-Tile-Recursive order: by x, then cut into
// ceil(sqrt(groups)) vertical slabs, each a whole number of groups of cap
// items, and each slab sorted by y. Grouping the ordered items cap at a
// time then tiles every slab and no group straddles two.
func strOrder(items []strItem, cap int) {
	n := len(items)
	groups := (n + cap - 1) / cap
	slabs := int(math.Ceil(math.Sqrt(float64(groups))))
	slabSize := (groups + slabs - 1) / slabs * cap
	slices.SortFunc(items, func(a, b strItem) int { return cmp.Compare(a.pt.X, b.pt.X) })
	for s := 0; s < n; s += slabSize {
		slices.SortFunc(items[s:min(s+slabSize, n)], func(a, b strItem) int { return cmp.Compare(a.pt.Y, b.pt.Y) })
	}
}

// Neighbor is one result of a Euclidean nearest-neighbor scan.
type Neighbor struct {
	ID   int32
	Dist float64
}

// scanItem is an entry of the scan's priority queue, holding either an
// R-tree node (node >= 0) or a point entry (node == -1, id set): 16 bytes.
type scanItem struct {
	key  float64
	node int32 // -1 for a point entry
	id   int32
}

// Scanner is a suspendable best-first incremental nearest-neighbor search
// (Hjaltason & Samet). Next returns neighbors in nondecreasing Euclidean
// distance; the scan retains its priority queue between calls, which is the
// property IER's candidate loop relies on. A Scanner reads the Tree it was
// created from and must not outlive concurrent mutations of that same Tree
// value; epoch-sharing callers scan a pinned Clone that is never mutated.
type Scanner struct {
	t     *Tree
	from  geo.Point
	items []scanItem
}

// NewScan starts an incremental Euclidean NN scan from p.
func (t *Tree) NewScan(p geo.Point) *Scanner {
	s := &Scanner{}
	s.Start(t, p)
	return s
}

// Start (re)initializes s as a scan of t from p, retaining the queue's
// backing array — the reuse hook that lets a query session keep one
// Scanner for its lifetime instead of allocating one per query.
func (s *Scanner) Start(t *Tree, p geo.Point) {
	s.t = t
	s.from = p
	s.items = s.items[:0]
	if t.root >= 0 {
		s.push(scanItem{key: t.nodes[t.root].rect.MinDist(p), node: t.root})
	}
}

// PeekDist returns the lower bound on the distance of the next neighbor, or
// +Inf when the scan is exhausted. The bound is exact when the head of the
// queue is a point.
func (s *Scanner) PeekDist() float64 {
	if len(s.items) == 0 {
		return math.Inf(1)
	}
	return s.items[0].key
}

// Next returns the next nearest neighbor, or ok=false when exhausted.
func (s *Scanner) Next() (Neighbor, bool) {
	t := s.t
	for len(s.items) > 0 {
		it := s.pop()
		if it.node < 0 {
			return Neighbor{ID: it.id, Dist: it.key}, true
		}
		n := &t.nodes[it.node]
		if n.leaf {
			for i, p := range n.pts {
				s.push(scanItem{key: s.from.Dist(p), node: -1, id: n.ids[i]})
			}
		} else {
			for _, c := range n.children {
				s.push(scanItem{key: t.nodes[c].rect.MinDist(s.from), node: c})
			}
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

func (s *Scanner) push(it scanItem) {
	s.items = append(s.items, it)
	i := len(s.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.items[parent].key <= s.items[i].key {
			break
		}
		s.items[i], s.items[parent] = s.items[parent], s.items[i]
		i = parent
	}
}

func (s *Scanner) pop() scanItem {
	top := s.items[0]
	last := len(s.items) - 1
	s.items[0] = s.items[last]
	s.items = s.items[:last]
	n := len(s.items)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && s.items[r].key < s.items[l].key {
			c = r
		}
		if s.items[c].key >= s.items[i].key {
			break
		}
		s.items[i], s.items[c] = s.items[c], s.items[i]
		i = c
	}
	return top
}
