package exp

import (
	"slices"

	"rnknn/internal/graph"
	"rnknn/internal/gtree"
	"rnknn/internal/knn"
	"rnknn/internal/partition"
)

// The Section 6.1 case study (Figure 6): the same G-tree distance matrices
// read through three storage layouts — G-tree's own flat arrays (excellent
// spatial locality), Go's builtin map (playing the role of the paper's
// chained-hashing STL unordered_map: the "obvious" library choice) and an
// open-addressing table with quadratic probing (the Google dense_hash_map
// analogue) — by one MGtree assembly, so only the storage differs between
// the rows.

// matrixLayout selects the distance-matrix storage under the assembly.
type matrixLayout int

const (
	arrayLayout matrixLayout = iota
	builtinMapLayout
	openAddrLayout
)

func (l matrixLayout) String() string {
	switch l {
	case arrayLayout:
		return "Array"
	case builtinMapLayout:
		return "Chained Hashing"
	case openAddrLayout:
		return "Quad. Probing"
	}
	return "?"
}

// cells is one layout's copy of a G-tree's matrices: at returns cell (i, j)
// of tree node ni's matrix, in the format of gtree.(*Index).Matrix.
type cells interface {
	at(ni, i, j int32) int32
}

// arrayCells reads G-tree's own per-node arrays.
type arrayCells []struct {
	mat    []int32
	stride int32
}

func (c arrayCells) at(ni, i, j int32) int32 { return c[ni].mat[i*c[ni].stride+j] }

// each calls f with every cell's hash key and value.
func (c arrayCells) each(f func(k uint64, w int32)) {
	for ni, n := range c {
		for i, w := range n.mat {
			f(matKey(int32(ni), int32(i)/n.stride, int32(i)%n.stride), w)
		}
	}
}

// mapCells is the chained-hashing layout.
type mapCells map[uint64]int32

func (c mapCells) at(ni, i, j int32) int32 { return c[matKey(ni, i, j)] }

func matKey(ni, i, j int32) uint64 {
	return uint64(ni)<<40 | uint64(uint32(i))<<20 | uint64(uint32(j))
}

// newCells copies x's matrices into layout l.
func newCells(x *gtree.Index, l matrixLayout) cells {
	a := make(arrayCells, x.NumNodes())
	total := 0
	for ni := range a {
		a[ni].mat, a[ni].stride, _, _ = x.Matrix(int32(ni))
		total += len(a[ni].mat)
	}
	switch l {
	case builtinMapLayout:
		m := make(mapCells)
		a.each(func(k uint64, w int32) { m[k] = w })
		return m
	case openAddrLayout:
		t := newOpenTable(total)
		a.each(t.put)
		return t
	}
	return a
}

// openTable is a quadratic-probing open-addressing hash table mapping
// packed matrix coordinates to distances.
type openTable struct {
	keys []uint64
	vals []int32
	used []bool
	mask uint64
}

func newOpenTable(n int) *openTable {
	size := 16
	for size < n*2 {
		size *= 2
	}
	return &openTable{
		keys: make([]uint64, size),
		vals: make([]int32, size),
		used: make([]bool, size),
		mask: uint64(size - 1),
	}
}

func hash64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

func (t *openTable) put(k uint64, v int32) {
	i := hash64(k) & t.mask
	for step := uint64(1); ; step++ {
		if !t.used[i] {
			t.used[i] = true
			t.keys[i] = k
			t.vals[i] = v
			return
		}
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
		i = (i + step) & t.mask // quadratic probing via triangular steps
	}
}

func (t *openTable) get(k uint64) int32 {
	i := hash64(k) & t.mask
	for step := uint64(1); ; step++ {
		if !t.used[i] {
			return gtree.NoPath
		}
		if t.keys[i] == k {
			return t.vals[i]
		}
		i = (i + step) & t.mask
	}
}

func (t *openTable) at(ni, i, j int32) int32 { return t.get(matKey(ni, i, j)) }

// layoutSource is MGtree's per-source assembly (gtree.Source) reading the
// matrices through cells: the border distances of every node a query
// reaches are materialized once per source, each step one row-wise
// min-plus as in G-tree. Targets in the source's own leaf go to G-tree's
// leaf scan, which reads the arrays whatever the layout. It is its own
// knn.SourceFactory: NewSource retargets it.
type layoutSource struct {
	x     *gtree.Index
	c     cells
	q     int32
	leafQ int32
	leaf  gtree.Source

	// dists[ni] holds node ni's border distances when stamp[ni] == cur.
	dists      [][]graph.Dist
	stamp      []uint64
	cur        uint64
	rows, cols []int32
}

func newLayoutSource(x *gtree.Index, c cells) *layoutSource {
	s := &layoutSource{x: x, c: c, dists: make([][]graph.Dist, x.NumNodes()), stamp: make([]uint64, x.NumNodes())}
	for ni := range s.dists {
		s.dists[ni] = make([]graph.Dist, len(x.Borders(int32(ni))))
	}
	return s
}

// Name implements knn.SourceFactory.
func (s *layoutSource) Name() string { return "MGtree" }

// NewSource implements knn.SourceFactory.
func (s *layoutSource) NewSource(q int32) knn.SourceOracle {
	s.q, s.leafQ = q, s.x.PT.LeafOf[q]
	s.cur++
	s.leaf.Reset(s.x, q)
	return s
}

// DistanceTo implements knn.SourceOracle.
func (s *layoutSource) DistanceTo(t int32) graph.Dist {
	leafT := s.x.PT.LeafOf[t]
	if leafT == s.leafQ {
		return s.leaf.DistanceTo(t)
	}
	pos := s.x.PosInLeaf(t)
	best := graph.Inf
	for bi, d := range s.borderDists(leafT) {
		if w := s.c.at(leafT, int32(bi), pos); d != graph.Inf && w < gtree.NoPath {
			best = min(best, d+graph.Dist(w))
		}
	}
	return best
}

// borderDists returns the global distances from the source to node ni's
// borders, assembling them on first use.
func (s *layoutSource) borderDists(ni int32) []graph.Dist {
	out := s.dists[ni]
	if s.stamp[ni] == s.cur {
		return out
	}
	for j := range out {
		out[j] = graph.Inf
	}
	pt := s.x.PT
	switch {
	case ni == s.leafQ:
		// Base case: the leaf matrix's column at q.
		pos := s.x.PosInLeaf(s.q)
		for bi := range out {
			if w := s.c.at(ni, int32(bi), pos); w < gtree.NoPath {
				out[bi] = graph.Dist(w)
			}
		}
	case pt.Contains(ni, s.q):
		// Up step: from the on-path child's borders to ni's own.
		child := s.onPathChild(ni)
		from := s.borderDists(child)
		_, _, own, off := s.x.Matrix(ni)
		s.minPlus(out, from, ni, span(&s.rows, off[childPos(pt, ni, child)], len(from)), own)
	default:
		// Crossing at the LCA from the on-path child, or a pure down step
		// from the parent's own borders.
		parent := pt.Nodes[ni].Parent
		_, _, own, off := s.x.Matrix(parent)
		from, rows := []graph.Dist(nil), own
		if pt.Contains(parent, s.q) {
			side := s.onPathChild(parent)
			from = s.borderDists(side)
			rows = span(&s.rows, off[childPos(pt, parent, side)], len(from))
		} else {
			from = s.borderDists(parent)
		}
		s.minPlus(out, from, parent, rows, span(&s.cols, off[childPos(pt, parent, ni)], len(out)))
	}
	s.stamp[ni] = s.cur
	return out
}

// minPlus lowers out[j] to from[i] plus cell (rows[i], cols[j]) of node ni's
// matrix, a row at a time.
func (s *layoutSource) minPlus(out, from []graph.Dist, ni int32, rows, cols []int32) {
	cells, out := s.c, out[:len(cols)]
	for i, fi := range from {
		if fi == graph.Inf {
			continue
		}
		r := rows[i]
		for j, c := range cols {
			if w := cells.at(ni, r, c); w < gtree.NoPath {
				out[j] = min(out[j], fi+graph.Dist(w))
			}
		}
	}
}

// onPathChild returns the child of ancestor ni that contains the source.
func (s *layoutSource) onPathChild(ni int32) int32 {
	return s.x.PT.AncestorAt(s.leafQ, s.x.PT.Nodes[ni].Level+1)
}

// childPos returns the position of child c among ni's children.
func childPos(pt *partition.Tree, ni, c int32) int {
	return slices.Index(pt.Nodes[ni].Children, c)
}

// span fills *buf with lo, lo+1, ..., lo+n-1.
func span(buf *[]int32, lo int32, n int) []int32 {
	*buf = (*buf)[:0]
	for i := range int32(n) {
		*buf = append(*buf, lo+i)
	}
	return *buf
}
