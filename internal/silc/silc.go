// Package silc implements the SILC index (Section 3.3) and the Distance
// Browsing kNN algorithms built on it: the Object Hierarchy form of
// Algorithm 1 and the Euclidean-NN DB-ENN form of Algorithm 2 (Appendix
// A.1.1), including the degree-2 chain refinement optimisation of Appendix
// A.1.2.
//
// For every source vertex s, SILC precomputes the first vertex on the
// shortest path from s to every target ("coloring"), compressed by grouping
// targets that are contiguous in Morton (Z-order) and share the same first
// move — the "Morton List" the paper binary-searches. Each block also
// stores lambda-/lambda+ — the minimum and maximum ratio of network to
// Euclidean distance over its targets — from which a distance interval
// [dE*lambda-, dE*lambda+] is derived and iteratively refined by stepping
// along the shortest path.
package silc

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"rnknn/internal/dijkstra"
	"rnknn/internal/geo"
	"rnknn/internal/graph"
)

// block is one entry of a source's Morton list: the run of Morton-ordered
// vertices starting at rank start share the same shortest-path first move.
type block struct {
	start int32 // first Morton rank covered by this block
	first int32 // first vertex on the shortest path to any target in it
	lamLo float32
	lamHi float32
}

// Index is a built SILC index.
type Index struct {
	G *graph.Graph
	// rank[v] is v's position in the global Morton order; byRank is the
	// inverse permutation.
	rank   []int32
	byRank []int32
	// trees[s] is the Morton list of source s, sorted by block start.
	trees [][]block
	// isChain[v] marks vertices of degree <= 2 (Appendix A.1.2).
	isChain []bool
	// ChainOptimization enables forced moves along degree-2 chains during
	// refinement, skipping Morton-list lookups (OptDisBrw). Default true.
	ChainOptimization bool
}

// Build constructs the SILC index: one Dijkstra plus Morton-list
// compression per vertex. Pre-processing is O(|V|^2 log |V|); intended for
// the smaller networks, as in the paper. The per-source computations run on
// NumCPU workers (the build parallelizes trivially, Section 7.2).
func Build(g *graph.Graph) *Index {
	n := g.NumVertices()
	x := &Index{
		G:                 g,
		rank:              make([]int32, n),
		byRank:            make([]int32, n),
		trees:             make([][]block, n),
		isChain:           make([]bool, n),
		ChainOptimization: true,
	}
	for v := int32(0); v < int32(n); v++ {
		x.isChain[v] = g.Degree(v) <= 2
	}

	// Morton order over jittered coordinates; ties broken by vertex id.
	r := geo.EmptyRect()
	for v := 0; v < n; v++ {
		r = r.Expand(geo.Point{X: g.X[v], Y: g.Y[v]})
	}
	grid := geo.NewMortonGrid(r)
	codes := make([]uint64, n)
	for v := 0; v < n; v++ {
		codes[v] = grid.Encode(geo.Point{X: g.X[v], Y: g.Y[v]})
	}
	for i := range x.byRank {
		x.byRank[i] = int32(i)
	}
	sort.Slice(x.byRank, func(a, b int) bool {
		va, vb := x.byRank[a], x.byRank[b]
		if codes[va] != codes[vb] {
			return codes[va] < codes[vb]
		}
		return va < vb
	})
	for i, v := range x.byRank {
		x.rank[v] = int32(i)
	}

	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	next := make(chan int32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			solver := dijkstra.NewSolver(g)
			dist := make([]graph.Dist, n)
			fm := make([]int32, n)
			for s := range next {
				x.trees[s] = buildMortonList(g, x.byRank, s, solver, dist, fm)
			}
		}()
	}
	for s := int32(0); s < int32(n); s++ {
		next <- s
	}
	close(next)
	wg.Wait()
	return x
}

func buildMortonList(g *graph.Graph, byRank []int32, s int32, solver *dijkstra.Solver, dist []graph.Dist, fm []int32) []block {
	solver.AllWithFirstMove(s, dist, fm)
	var list []block
	n := len(byRank)
	i := 0
	for i < n {
		v := byRank[i]
		first := fm[v]
		lo, hi := float32(math.MaxFloat32), float32(0)
		j := i
		for j < n && fm[byRank[j]] == first {
			t := byRank[j]
			if t != s {
				de := g.Euclid(s, t)
				var ratio float64
				if de < 1e-9 {
					ratio = 1e12
				} else {
					ratio = float64(dist[t]) / de
				}
				// Round conservatively so the stored bounds stay valid.
				if r32 := nextDown(ratio); r32 < lo {
					lo = r32
				}
				if r32 := nextUp(ratio); r32 > hi {
					hi = r32
				}
			}
			j++
		}
		if lo > hi { // block contained only s itself
			lo, hi = 1, 1
		}
		list = append(list, block{start: int32(i), first: first, lamLo: lo, lamHi: hi})
		i = j
	}
	return list
}

func nextDown(r float64) float32 {
	f := float32(r)
	if float64(f) > r {
		f = math.Nextafter32(f, 0)
	}
	return f
}

func nextUp(r float64) float32 {
	f := float32(r)
	if float64(f) < r {
		f = math.Nextafter32(f, float32(math.MaxFloat32))
	}
	return f
}

// blockOf returns the Morton-list block of source s covering target rank.
func (x *Index) blockOf(s int32, rank int32) *block {
	tree := x.trees[s]
	lo, hi := 0, len(tree)
	for lo < hi {
		mid := (lo + hi) / 2
		if tree[mid].start <= rank {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return &tree[lo-1]
}

// FirstMove returns the first vertex after s on a shortest path from s to
// t. FirstMove(s, s) returns s.
func (x *Index) FirstMove(s, t int32) int32 {
	if s == t {
		return s
	}
	return x.blockOf(s, x.rank[t]).first
}

// LambdaRange returns the lambda-/lambda+ pair of the block of source s
// covering the Morton rank range [loRank, hiRank] (used by the Object
// Hierarchy to bound whole regions; Appendix A.1.1 notes the scan cost).
// ScannedBlocks reports how many blocks the scan touched.
func (x *Index) LambdaRange(s int32, loRank, hiRank int32) (lamLo, lamHi float64, scannedBlocks int) {
	tree := x.trees[s]
	// First block covering loRank.
	lo, hi := 0, len(tree)
	for lo < hi {
		mid := (lo + hi) / 2
		if tree[mid].start <= loRank {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo - 1
	lamLo, lamHi = math.MaxFloat64, 0
	for ; i < len(tree) && (i == lo-1 || tree[i].start <= hiRank); i++ {
		if float64(tree[i].lamLo) < lamLo {
			lamLo = float64(tree[i].lamLo)
		}
		if float64(tree[i].lamHi) > lamHi {
			lamHi = float64(tree[i].lamHi)
		}
		scannedBlocks++
	}
	return lamLo, lamHi, scannedBlocks
}

// Path computes the full shortest path from s to t by iterated first moves
// (O(m log |V|) for an m-edge path, Section 3.3). A shortest path has fewer
// than |V| edges, so a walk that makes |V| moves without reaching t follows
// first moves that cycle — a corrupt index — and Path returns nil.
func (x *Index) Path(s, t int32) []int32 {
	path := []int32{s}
	for v := s; v != t; {
		if len(path) > x.G.NumVertices() {
			return nil
		}
		v = x.FirstMove(v, t)
		path = append(path, v)
	}
	return path
}

// SizeBytes estimates the index footprint (Morton lists dominate; the
// paper's O(|V|^1.5) growth shows up as blocks-per-source).
func (x *Index) SizeBytes() int {
	total := len(x.rank)*8 + len(x.isChain)
	for _, t := range x.trees {
		total += len(t) * 16
	}
	return total
}

// AvgBlocks returns the average Morton-list length per source.
func (x *Index) AvgBlocks() float64 {
	total := 0
	for _, t := range x.trees {
		total += len(t)
	}
	return float64(total) / float64(len(x.trees))
}

// Rank exposes the Morton rank of v (used by the Object Hierarchy).
func (x *Index) Rank(v int32) int32 { return x.rank[v] }

// Refiner tracks the distance interval of one (query, target) pair and
// tightens it one shortest-path step at a time (Section 3.3). Lookups are
// skipped along degree-2 chains when ChainOptimization is on.
type Refiner struct {
	x      *Index
	t      int32
	prev   int32
	vn     int32
	d      graph.Dist // distance from the query to vn
	lb, ub graph.Dist
	moves  int // vertices walked from the query
	// Lookups counts Morton-list lookups performed (the chain optimisation
	// statistic of Figures 20/21).
	Lookups int
}

// NewRefiner starts a refinement of d(q, t) with the initial interval from
// q's Morton list.
func (x *Index) NewRefiner(q, t int32) *Refiner {
	r := &Refiner{}
	r.Init(x, q, t)
	return r
}

// Init (re)starts r as a refinement of d(q, t) — the in-place form that
// lets Distance Browsing keep its refiners in a reusable arena instead of
// allocating one per candidate object.
func (r *Refiner) Init(x *Index, q, t int32) {
	*r = Refiner{x: x, t: t, prev: -1, vn: q}
	if q == t {
		return // lb = ub = 0
	}
	r.setInterval()
}

// Bounds returns the current [lower, upper] interval.
func (r *Refiner) Bounds() (lb, ub graph.Dist) { return r.lb, r.ub }

// Exact reports whether the interval has converged (vn reached t).
func (r *Refiner) Exact() bool { return r.lb == r.ub }

func (r *Refiner) setInterval() {
	x := r.x
	b := x.blockOf(r.vn, x.rank[r.t])
	r.Lookups++
	de := x.G.Euclid(r.vn, r.t)
	r.lb = r.d + graph.Dist(math.Floor(de*float64(b.lamLo)))
	r.ub = r.d + graph.Dist(math.Ceil(de*float64(b.lamHi)))
	if r.ub < r.lb {
		r.ub = r.lb
	}
}

// Step advances one vertex along the shortest path (following forced moves
// along chains without lookups) and recomputes the interval. A shortest
// path has fewer than |V| edges, so a walk that makes |V| moves without
// reaching t follows first moves that cycle — a corrupt index — and ends
// there with the interval [Inf, Inf], so every refinement terminates.
func (r *Refiner) Step() {
	if r.Exact() {
		return
	}
	x := r.x
	g := x.G
	for {
		var next int32 = -1
		if x.ChainOptimization && x.isChain[r.vn] {
			next = r.forcedMove()
		}
		if next == -1 {
			next = x.blockOf(r.vn, x.rank[r.t]).first
			r.Lookups++
		}
		w, _ := g.EdgeWeightBetween(r.vn, next)
		r.d += graph.Dist(w)
		r.prev = r.vn
		r.vn = next
		r.moves++
		if r.vn == r.t {
			r.lb, r.ub = r.d, r.d
			return
		}
		if r.moves >= g.NumVertices() {
			r.lb, r.ub = graph.Inf, graph.Inf
			return
		}
		// Keep consuming forced chain moves in the same Step; each one
		// saves an O(log |V|) lookup (the "jump" of Appendix A.1.2).
		if !(x.ChainOptimization && x.isChain[r.vn] && r.forcedMove() != -1) {
			break
		}
	}
	r.setInterval()
}

// forcedMove returns the unique continuation at a degree<=2 vertex, or -1
// when the move is ambiguous (no previous vertex at a degree-2 vertex).
func (r *Refiner) forcedMove() int32 {
	g := r.x.G
	ts, _ := g.Neighbors(r.vn)
	switch len(ts) {
	case 1:
		if ts[0] != r.prev {
			return ts[0]
		}
	case 2:
		if r.prev == ts[0] {
			return ts[1]
		}
		if r.prev == ts[1] {
			return ts[0]
		}
	}
	return -1
}

// RefineExact runs refinement to convergence and returns the exact network
// distance d(q, t).
func (r *Refiner) RefineExact() graph.Dist {
	for !r.Exact() {
		r.Step()
	}
	return r.lb
}
