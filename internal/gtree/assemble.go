package gtree

import (
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/pqueue"
)

// Source is a per-source materialized distance oracle over a G-tree (the
// MGtree of Section 5): border-distance arrays computed while walking the
// hierarchy are cached, so repeated queries from the same source — exactly
// IER's access pattern — reuse earlier assembly work. It also implements
// the suspendable same-leaf search.
//
// A Source is reusable: Reset retargets it to a new source vertex in O(1)
// by bumping the generation stamp of its border-distance cache, so a query
// session can keep one Source for its lifetime and never allocate on the
// query path. The cache is one flat arena indexed by precomputed per-node
// offsets (node ni's distances live at flat[off[ni]:off[ni+1]]) — the
// former per-node map of freshly made slices, flattened.
type Source struct {
	idx   *Index
	q     int32
	leafQ int32

	// Stamped border-distance cache: node ni's slice is materialized for
	// this generation when stamp[ni] == cur.
	off   []int32
	flat  []graph.Dist
	stamp []uint32
	cur   uint32
	// idxBuf is scratch for the crossing-step source-side index list.
	idxBuf []int32

	local      leafScan
	localReady bool

	// PathCost counts border-to-border additions performed so far (the
	// "path cost" statistic of Figure 9b).
	PathCost int
}

// NewSource starts a materialized oracle from source vertex q.
func (x *Index) NewSource(q int32) *Source {
	s := &Source{}
	s.Reset(x, q)
	return s
}

// Reset retargets the source to vertex q over x, invalidating the cached
// border distances in O(1) via the generation counter. The arena is
// (re)allocated only when the source is bound to a different index.
func (s *Source) Reset(x *Index, q int32) {
	if s.idx != x {
		s.idx = x
		n := len(x.nodes)
		s.off = make([]int32, n+1)
		for ni := 0; ni < n; ni++ {
			s.off[ni+1] = s.off[ni] + int32(len(x.nodes[ni].borders))
		}
		s.flat = make([]graph.Dist, s.off[n])
		s.stamp = make([]uint32, n)
		s.cur = 0
	}
	s.cur++
	if s.cur == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.cur = 1
	}
	s.q = q
	s.leafQ = x.PT.LeafOf[q]
	s.localReady = false
	s.PathCost = 0
}

// leafLocal returns the suspendable same-leaf scan, starting it on first
// use per source vertex.
func (s *Source) leafLocal() *leafScan {
	if !s.localReady {
		s.local.start(s.idx, s.q)
		s.localReady = true
	}
	return &s.local
}

// Factory adapts the index to knn.SourceFactory for IER composition,
// caching one reusable Source per factory (a factory serves one session).
type Factory struct {
	Idx *Index

	src Source
}

// Name implements knn.SourceFactory.
func (f *Factory) Name() string { return "MGtree" }

// NewSource implements knn.SourceFactory.
func (f *Factory) NewSource(s int32) knn.SourceOracle {
	f.src.Reset(f.Idx, s)
	return &f.src
}

// DistanceTo returns the exact network distance from the source to t.
func (s *Source) DistanceTo(t int32) graph.Dist {
	if t == s.q {
		return 0
	}
	x := s.idx
	leafT := x.PT.LeafOf[t]
	if leafT == s.leafQ {
		return s.leafLocal().distanceTo(t)
	}
	db := s.BorderDists(leafT)
	ln := &x.nodes[leafT]
	pos := x.posInLeaf[t]
	best := graph.Inf
	for bi := range ln.borders {
		w := x.matAt(leafT, int32(bi), pos)
		if w >= inf32 {
			continue
		}
		if d := db[bi] + graph.Dist(w); d < best {
			best = d
		}
	}
	s.PathCost += len(ln.borders)
	return best
}

// BorderDists returns the materialized global distances from the source to
// the borders of tree node ni, computing (and caching) them on demand. The
// returned slice aliases the source's arena and is valid until the next
// Reset.
func (s *Source) BorderDists(ni int32) []graph.Dist {
	out := s.flat[s.off[ni]:s.off[ni+1]]
	if s.stamp[ni] == s.cur {
		return out
	}
	x := s.idx
	pt := x.PT
	switch {
	case ni == s.leafQ:
		// Base case: the refined leaf matrix columns at q are global.
		ln := &x.nodes[ni]
		pos := x.posInLeaf[s.q]
		for bi := range ln.borders {
			out[bi] = dist64(x.matAt(ni, int32(bi), pos))
		}
	case pt.Contains(ni, s.q):
		// Up step: combine the on-path child's border distances with this
		// node's matrix restricted to (child block) x (own borders).
		child := s.onPathChild(ni)
		cd := s.BorderDists(child)
		n := &x.nodes[ni]
		base := n.childOff[childIndex(pt, ni, child)]
		for j := range out {
			out[j] = graph.Inf
		}
		if x.layout == ArrayLayout {
			// Row-contiguous pass: iterate each child border's matrix row
			// once (the Section 6.1 spatial-locality access pattern), as a
			// branch-free min-plus: a no-path cell offers Inf.
			own := n.ownIdx[:len(out)]
			for i, fi := range cd {
				if fi == graph.Inf {
					continue
				}
				row := n.mat[(base+int32(i))*n.stride:]
				for j, oj := range own {
					w := row[oj]
					d := fi + graph.Dist(w)
					if w >= inf32 {
						d = graph.Inf
					}
					out[j] = min(out[j], d)
				}
			}
		} else {
			for j := range n.borders {
				oj := n.ownIdx[j]
				for i := range cd {
					if cd[i] == graph.Inf {
						continue
					}
					w := x.matAt(ni, base+int32(i), oj)
					if w >= inf32 {
						continue
					}
					if d := cd[i] + graph.Dist(w); d < out[j] {
						out[j] = d
					}
				}
			}
		}
		s.PathCost += len(cd) * len(out)
	default:
		// Crossing or down step within the parent.
		parent := pt.Nodes[ni].Parent
		pn := &x.nodes[parent]
		myBase := pn.childOff[childIndex(pt, parent, ni)]
		nb := len(x.nodes[ni].borders)
		var fromD []graph.Dist
		var fromIdx []int32
		if pt.Contains(parent, s.q) {
			// Crossing at the LCA: source side is the on-path child.
			side := s.onPathChild(parent)
			fromD = s.BorderDists(side)
			sideBase := pn.childOff[childIndex(pt, parent, side)]
			fromIdx = s.idxBuf[:0]
			for i := range fromD {
				fromIdx = append(fromIdx, sideBase+int32(i))
			}
			s.idxBuf = fromIdx
		} else {
			// Pure down step: from the parent's own borders.
			fromD = s.BorderDists(parent)
			fromIdx = pn.ownIdx
		}
		out = out[:nb] // already nb long; lets the compiler drop bounds checks below
		for j := range out {
			out[j] = graph.Inf
		}
		if x.layout == ArrayLayout {
			for i, fi := range fromD {
				if fi == graph.Inf {
					continue
				}
				row := pn.mat[fromIdx[i]*pn.stride+myBase:][:nb]
				for j, w := range row {
					d := fi + graph.Dist(w)
					if w >= inf32 {
						d = graph.Inf
					}
					out[j] = min(out[j], d)
				}
			}
		} else {
			for j := 0; j < nb; j++ {
				col := myBase + int32(j)
				for i := range fromD {
					if fromD[i] == graph.Inf {
						continue
					}
					w := x.matAt(parent, fromIdx[i], col)
					if w >= inf32 {
						continue
					}
					if d := fromD[i] + graph.Dist(w); d < out[j] {
						out[j] = d
					}
				}
			}
		}
		s.PathCost += len(fromD) * nb
	}
	s.stamp[ni] = s.cur
	return out
}

// onPathChild returns the child of ancestor ni that contains the source.
func (s *Source) onPathChild(ni int32) int32 {
	pt := s.idx.PT
	for _, c := range pt.Nodes[ni].Children {
		if pt.Contains(c, s.q) {
			return c
		}
	}
	panic("gtree: no on-path child")
}

// MinBorderDist returns the minimum distance from the source to any border
// of node ni (the node lower bound used by the kNN algorithm), or Inf when
// ni has no borders (the root).
func (s *Source) MinBorderDist(ni int32) graph.Dist {
	db := s.BorderDists(ni)
	best := graph.Inf
	for _, d := range db {
		if d < best {
			best = d
		}
	}
	return best
}

func dist64(w int32) graph.Dist {
	if w >= inf32 {
		return graph.Inf
	}
	return graph.Dist(w)
}

// leafScan is the suspendable Dijkstra search within the source's leaf,
// augmented with the leaf's (global) border-to-border clique so that paths
// leaving and re-entering the leaf are accounted for. It settles leaf
// vertices in nondecreasing global distance order. The scan is reusable:
// start retargets it to a new source, growing the per-leaf arrays to the
// largest leaf seen so far and reusing them afterwards.
type leafScan struct {
	x     *Index
	leaf  int32
	verts []int32
	off   []int32
	tgt   []int32
	w     []int32
	dist  []graph.Dist
	done  []bool
	q     *pqueue.Queue
}

func (ls *leafScan) start(x *Index, q int32) {
	leaf := x.PT.LeafOf[q]
	verts := x.PT.Nodes[leaf].Vertices
	ls.x = x
	ls.leaf = leaf
	ls.verts = verts
	ls.off, ls.tgt, ls.w = x.leafOff[leaf], x.leafTgt[leaf], x.leafW[leaf]
	n := len(verts)
	if cap(ls.dist) < n {
		ls.dist = make([]graph.Dist, n)
		ls.done = make([]bool, n)
	}
	ls.dist = ls.dist[:n]
	ls.done = ls.done[:n]
	for i := range ls.dist {
		ls.dist[i] = graph.Inf
		ls.done[i] = false
	}
	if ls.q == nil {
		ls.q = pqueue.NewQueue(n)
	}
	ls.q.Reset()
	src := x.posInLeaf[q]
	ls.dist[src] = 0
	ls.q.Push(src, 0)
}

// next settles and returns the next leaf-local vertex, or ok=false.
func (ls *leafScan) next() (local int32, d graph.Dist, ok bool) {
	n := &ls.x.nodes[ls.leaf]
	for !ls.q.Empty() {
		it := ls.q.Pop()
		v := it.ID
		if ls.done[v] {
			continue
		}
		ls.done[v] = true
		dv := graph.Dist(it.Key)
		// Relax leaf-internal edges.
		for e := ls.off[v]; e < ls.off[v+1]; e++ {
			t := ls.tgt[e]
			if ls.done[t] {
				continue
			}
			if nd := dv + graph.Dist(ls.w[e]); nd < ls.dist[t] {
				ls.dist[t] = nd
				ls.q.Push(t, int64(nd))
			}
		}
		// If v is a border, relax all other borders through the global
		// border-to-border clique (Algorithm 4, RelaxLeafVertex).
		if bi := borderIndexOf(n, v); bi >= 0 {
			for bj := range n.borders {
				t := n.ownIdx[bj]
				if ls.done[t] {
					continue
				}
				w := n.matAt(int32(bi), t)
				if w >= inf32 {
					continue
				}
				if nd := dv + graph.Dist(w); nd < ls.dist[t] {
					ls.dist[t] = nd
					ls.q.Push(t, int64(nd))
				}
			}
		}
		return v, dv, true
	}
	return 0, 0, false
}

// distanceTo resumes the scan until the target vertex (which must lie in the
// leaf) is settled.
func (ls *leafScan) distanceTo(t int32) graph.Dist {
	lt := ls.x.posInLeaf[t]
	if ls.done[lt] {
		return ls.dist[lt]
	}
	for {
		v, d, ok := ls.next()
		if !ok {
			return graph.Inf
		}
		if v == lt {
			return d
		}
	}
}

// CountingFactory is a SourceFactory that accumulates the path cost of
// every source it hands out, for the IER-Gt statistic of Figure 9(b).
type CountingFactory struct {
	idx   *Index
	total int64
	last  *Source
}

// NewCountingFactory wraps idx.
func NewCountingFactory(idx *Index) *CountingFactory { return &CountingFactory{idx: idx} }

// Name implements knn.SourceFactory.
func (f *CountingFactory) Name() string { return "MGtree" }

// NewSource implements knn.SourceFactory.
func (f *CountingFactory) NewSource(s int32) knn.SourceOracle {
	f.flush()
	f.last = f.idx.NewSource(s)
	return f.last
}

func (f *CountingFactory) flush() {
	if f.last != nil {
		f.total += int64(f.last.PathCost)
		f.last = nil
	}
}

// TotalPathCost returns the accumulated border-to-border additions.
func (f *CountingFactory) TotalPathCost() int64 {
	f.flush()
	return f.total
}
