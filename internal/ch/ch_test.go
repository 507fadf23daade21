package ch

import (
	"math/rand"
	"slices"
	"testing"

	"rnknn/internal/dijkstra"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/pqueue"
)

func testGraph(t testing.TB, seed int64, rows, cols int) *graph.Graph {
	t.Helper()
	return gen.Network(gen.NetworkSpec{Name: "t", Rows: rows, Cols: cols, Seed: seed})
}

func TestDistanceMatchesDijkstra(t *testing.T) {
	g := testGraph(t, 81, 16, 16)
	x := Build(g).NewSearcher()
	solver := dijkstra.NewSolver(g)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tv := int32(rng.Intn(g.NumVertices()))
		if got, want := x.Distance(s, tv), solver.Distance(s, tv); got != want {
			t.Fatalf("d(%d,%d) = %d, want %d", s, tv, got, want)
		}
	}
}

func TestDistanceTravelTime(t *testing.T) {
	g := testGraph(t, 82, 14, 14).View(graph.TravelTime)
	x := Build(g).NewSearcher()
	solver := dijkstra.NewSolver(g)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tv := int32(rng.Intn(g.NumVertices()))
		if got, want := x.Distance(s, tv), solver.Distance(s, tv); got != want {
			t.Fatalf("time d(%d,%d) = %d, want %d", s, tv, got, want)
		}
	}
}

func TestSelfDistanceZero(t *testing.T) {
	g := testGraph(t, 83, 8, 8)
	x := Build(g).NewSearcher()
	for _, v := range []int32{0, 7, 30} {
		if d := x.Distance(v, v); d != 0 {
			t.Fatalf("d(%d,%d) = %d", v, v, d)
		}
	}
}

func TestRanksArePermutation(t *testing.T) {
	g := testGraph(t, 84, 10, 10)
	x := Build(g)
	seen := make([]bool, g.NumVertices())
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		r := x.Rank(v)
		if r < 0 || int(r) >= g.NumVertices() || seen[r] {
			t.Fatalf("rank %d of %d invalid", r, v)
		}
		seen[r] = true
	}
}

func TestUpwardSearchVisitsSource(t *testing.T) {
	g := testGraph(t, 85, 10, 10)
	x := Build(g).NewSearcher()
	// A point-to-point query first: the upward search reuses its forward
	// state and must not see the labels it left behind.
	x.Distance(5, 60)
	visited := map[int32]graph.Dist{}
	x.UpwardSearch(5, nil, func(v int32, d graph.Dist) { visited[v] = d })
	if d, ok := visited[5]; !ok || d != 0 {
		t.Fatalf("source not visited with 0: %v %v", d, ok)
	}
	// Upward distances over-approximate true distances.
	solver := dijkstra.NewSolver(g)
	for v, d := range visited {
		if want := solver.Distance(5, v); d < want {
			t.Fatalf("upward dist %d below true %d for %d", d, want, v)
		}
	}
}

func TestUpwardSearchPrune(t *testing.T) {
	g := testGraph(t, 86, 10, 10)
	x := Build(g).NewSearcher()
	full, pruned := 0, 0
	x.UpwardSearch(3, nil, func(int32, graph.Dist) { full++ })
	x.UpwardSearch(3, func(v int32) bool { return v != 3 }, func(int32, graph.Dist) { pruned++ })
	if pruned > full {
		t.Fatalf("pruned search visited more: %d > %d", pruned, full)
	}
	if pruned < 1 {
		t.Fatal("pruned search must still visit the source")
	}
}

func TestShortcutsReported(t *testing.T) {
	g := testGraph(t, 87, 12, 12)
	x := Build(g)
	if x.Shortcuts <= 0 {
		t.Fatal("expected shortcuts on a grid network")
	}
	if x.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

// TestBuildMatchesReferenceContraction checks that Build, which contracts
// on a pruned working graph and reuses the accepted pop's simulation,
// returns exactly the hierarchy of referenceBuild.
func TestBuildMatchesReferenceContraction(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"distance":    testGraph(t, 88, 20, 22),
		"travel-time": testGraph(t, 89, 20, 22).View(graph.TravelTime),
		"unit-grid":   unitGrid(24, 24),
	}
	for name, g := range graphs {
		got, want := Build(g), referenceBuild(g)
		if !slices.Equal(got.rank, want.rank) || !slices.Equal(got.upOff, want.upOff) ||
			!slices.Equal(got.upTo, want.upTo) || !slices.Equal(got.upW, want.upW) ||
			got.Shortcuts != want.Shortcuts {
			t.Errorf("%s: hierarchy differs from the reference (%d vs %d shortcuts)",
				name, got.Shortcuts, want.Shortcuts)
		}
	}
}

// unitGrid is a rows x cols grid with every edge of weight 1, so nearly
// every witness-search settle is a tie.
func unitGrid(rows, cols int) *graph.Graph {
	n := rows * cols
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = float64(i%cols), float64(i/cols)
	}
	b := graph.NewBuilder(n, x, y)
	for i := int32(0); i < int32(n); i++ {
		if int(i)%cols+1 < cols {
			b.AddEdge(i, i+1, 1, 1)
		}
		if int(i)+cols < n {
			b.AddEdge(i, i+int32(cols), 1, 1)
		}
	}
	return b.Build("unit-grid")
}

// referenceBuild is Build as it was before the working graph was pruned:
// contracted neighbours stay in every adjacency list and are skipped by a
// contracted[] check, and each accepted pop re-runs its witness searches.
// Kept as the reference Build must reproduce element for element.
func referenceBuild(g *graph.Graph) *Index {
	n := g.NumVertices()
	x := &Index{rank: make([]int32, n)}

	// Mutable working graph: remaining adjacency among uncontracted
	// vertices, starting from the original edges.
	adj := make([][]dynEdge, n)
	for v := int32(0); v < int32(n); v++ {
		ts, ws := g.Neighbors(v)
		adj[v] = make([]dynEdge, len(ts))
		for i := range ts {
			adj[v][i] = dynEdge{ts[i], ws[i]}
		}
	}
	contracted := make([]bool, n)
	deleted := make([]int16, n) // contracted neighbors heuristic term

	// allEdges accumulates original + shortcut edges for the upward graph.
	type fullEdge struct {
		u, v int32
		w    int32
	}
	var all []fullEdge
	for v := int32(0); v < int32(n); v++ {
		ts, ws := g.Neighbors(v)
		for i, t := range ts {
			if t > v {
				all = append(all, fullEdge{v, t, ws[i]})
			}
		}
	}

	ws := newRefWitnessSearch(n)
	simulate := func(v int32) (added int) {
		return ws.shortcutsNeeded(adj, contracted, v, nil)
	}
	prio := func(v int32) int64 {
		return int64(simulate(v)-len(refRemaining(adj[v], contracted)))*4 + int64(deleted[v])
	}

	q := pqueue.NewQueue(n)
	for v := int32(0); v < int32(n); v++ {
		q.Push(v, prio(v))
	}
	next := int32(0)
	for !q.Empty() {
		it := q.Pop()
		v := it.ID
		if contracted[v] {
			continue
		}
		// Lazy update: re-evaluate; if no longer minimal, requeue.
		p := prio(v)
		if !q.Empty() && p > q.MinKey() {
			q.Push(v, p)
			continue
		}
		// Contract v: add needed shortcuts among uncontracted neighbors.
		var shortcuts [][3]int32
		ws.shortcutsNeeded(adj, contracted, v, func(u, t, w int32) {
			shortcuts = append(shortcuts, [3]int32{u, t, w})
		})
		for _, sc := range shortcuts {
			u, t, w := sc[0], sc[1], sc[2]
			adj[u] = upsertEdge(adj[u], t, w)
			adj[t] = upsertEdge(adj[t], u, w)
			all = append(all, fullEdge{u, t, w})
			x.Shortcuts++
		}
		contracted[v] = true
		x.rank[v] = next
		next++
		for _, e := range adj[v] {
			if !contracted[e.to] {
				deleted[e.to]++
			}
		}
	}

	// Build the upward CSR: edge endpoints point from lower to higher rank.
	deg := make([]int32, n+1)
	for _, e := range all {
		lo := e.u
		if x.rank[e.v] < x.rank[e.u] {
			lo = e.v
		}
		deg[lo+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	x.upOff = deg
	m := int(x.upOff[n])
	x.upTo = make([]int32, m)
	x.upW = make([]int32, m)
	pos := make([]int32, n)
	copy(pos, x.upOff[:n])
	for _, e := range all {
		lo, hi := e.u, e.v
		if x.rank[hi] < x.rank[lo] {
			lo, hi = hi, lo
		}
		x.upTo[pos[lo]] = hi
		x.upW[pos[lo]] = e.w
		pos[lo]++
	}

	return x
}

func refRemaining(es []dynEdge, contracted []bool) []dynEdge {
	out := es[:0:0]
	for _, e := range es {
		if !contracted[e.to] {
			out = append(out, e)
		}
	}
	return out
}

// refWitnessSearch is a bounded Dijkstra used to decide whether a shortcut
// u -> t through the contracted vertex v is necessary.
type refWitnessSearch struct {
	dist  []graph.Dist
	stamp []uint32
	cur   uint32
	q     *pqueue.Queue
}

func newRefWitnessSearch(n int) *refWitnessSearch {
	return &refWitnessSearch{
		dist:  make([]graph.Dist, n),
		stamp: make([]uint32, n),
		q:     pqueue.NewQueue(256),
	}
}

// shortcutsNeeded counts (and via emit, reports) the shortcuts required to
// contract v: for every pair of uncontracted neighbors (u, t) with path
// u-v-t of weight w, a shortcut is needed unless a witness path of weight
// <= w exists in the remaining graph avoiding v.
func (ws *refWitnessSearch) shortcutsNeeded(adj [][]dynEdge, contracted []bool, v int32, emit func(u, t, w int32)) int {
	var nbrs []dynEdge
	for _, e := range adj[v] {
		if !contracted[e.to] {
			nbrs = append(nbrs, e)
		}
	}
	count := 0
	for i, eu := range nbrs {
		// One witness Dijkstra from u bounded by the largest via weight.
		var maxVia graph.Dist
		for j, et := range nbrs {
			if j == i {
				continue
			}
			if via := graph.Dist(eu.w) + graph.Dist(et.w); via > maxVia {
				maxVia = via
			}
		}
		if maxVia == 0 {
			continue
		}
		ws.run(adj, contracted, eu.to, v, maxVia)
		for j, et := range nbrs {
			if j <= i {
				continue // each unordered pair once
			}
			via := graph.Dist(eu.w) + graph.Dist(et.w)
			if ws.distOf(et.to) > via {
				count++
				if emit != nil {
					emit(eu.to, et.to, int32(via))
				}
			}
		}
	}
	return count
}

func (ws *refWitnessSearch) distOf(v int32) graph.Dist {
	if ws.stamp[v] != ws.cur {
		return graph.Inf
	}
	return ws.dist[v]
}

func (ws *refWitnessSearch) run(adj [][]dynEdge, contracted []bool, src, avoid int32, limit graph.Dist) {
	ws.cur++
	if ws.cur == 0 {
		for i := range ws.stamp {
			ws.stamp[i] = 0
		}
		ws.cur = 1
	}
	ws.q.Reset()
	ws.dist[src] = 0
	ws.stamp[src] = ws.cur
	ws.q.Push(src, 0)
	settled := 0
	for !ws.q.Empty() && settled < witnessSettleLimit {
		it := ws.q.Pop()
		u := it.ID
		d := graph.Dist(it.Key)
		if d > ws.distOf(u) {
			continue
		}
		if d > limit {
			break
		}
		settled++
		for _, e := range adj[u] {
			if e.to == avoid || contracted[e.to] {
				continue
			}
			nd := d + graph.Dist(e.w)
			if nd < ws.distOf(e.to) {
				ws.dist[e.to] = nd
				ws.stamp[e.to] = ws.cur
				ws.q.Push(e.to, int64(nd))
			}
		}
	}
}
