package phl

import (
	"slices"
	"testing"

	"rnknn/internal/ch"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/pqueue"
)

// buildMergePruned is plain pruned landmark labeling: one pruned Dijkstra
// per root in importance order, the prune test a merge of the root's and
// the popped vertex's labels. Kept as the reference the hierarchy-derived
// Build must reproduce element for element.
func buildMergePruned(g *graph.Graph, hierarchy *ch.Index) (off, hubs, dist []int32) {
	n := g.NumVertices()
	order := make([]int32, n)
	for v := int32(0); v < int32(n); v++ {
		order[int32(n)-1-hierarchy.Rank(v)] = v
	}
	labHubs := make([][]int32, n)
	labDist := make([][]int32, n)
	query := func(u, v int32) graph.Dist {
		hu, du := labHubs[u], labDist[u]
		hv, dv := labHubs[v], labDist[v]
		best := graph.Inf
		i, j := 0, 0
		for i < len(hu) && j < len(hv) {
			switch {
			case hu[i] == hv[j]:
				best = min(best, graph.Dist(du[i])+graph.Dist(dv[j]))
				i++
				j++
			case hu[i] < hv[j]:
				i++
			default:
				j++
			}
		}
		return best
	}
	dists := make([]graph.Dist, n)
	seen := make([]bool, n)
	q := pqueue.NewQueue(1024)
	for rank, root := range order {
		clear(seen)
		dists[root], seen[root] = 0, true
		q.Push(root, 0)
		for !q.Empty() {
			it := q.Pop()
			v, d := it.ID, graph.Dist(it.Key)
			if d > dists[v] || query(root, v) <= d {
				continue
			}
			labHubs[v] = append(labHubs[v], int32(rank))
			labDist[v] = append(labDist[v], int32(d))
			ts, ws := g.Neighbors(v)
			for i, t := range ts {
				if nd := d + graph.Dist(ws[i]); !seen[t] || nd < dists[t] {
					dists[t], seen[t] = nd, true
					q.Push(t, int64(nd))
				}
			}
		}
	}
	off = make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(len(labHubs[v]))
		hubs = append(hubs, labHubs[v]...)
		dist = append(dist, labDist[v]...)
	}
	return off, hubs, dist
}

// equalGrid is a rows×cols grid whose edges all weigh the same, so
// shortest-path ties are everywhere.
func equalGrid(rows, cols int) *graph.Graph {
	n := rows * cols
	x, y := make([]float64, n), make([]float64, n)
	for v := range n {
		x[v], y[v] = float64(v%cols), float64(v/cols)
	}
	b := graph.NewBuilder(n, x, y)
	for v := int32(0); v < int32(n); v++ {
		if int(v)%cols+1 < cols {
			b.AddEdge(v, v+1, 10, 10)
		}
		if int(v)+cols < n {
			b.AddEdge(v, v+int32(cols), 10, 10)
		}
	}
	return b.Build("equal-grid")
}

// Disjoint places a and b side by side with no edge between them; the
// external tests use it too.
func Disjoint(a, b *graph.Graph) *graph.Graph {
	na, n := a.NumVertices(), a.NumVertices()+b.NumVertices()
	x, y := append(slices.Clone(a.X), b.X...), append(slices.Clone(a.Y), b.Y...)
	for v := na; v < n; v++ {
		x[v] += 1e7
	}
	bd := graph.NewBuilder(n, x, y)
	for i, g := range []*graph.Graph{a, b} {
		base := int32(i * na)
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
				bd.AddEdge(base+v, base+g.Targets[e], g.DistW[e], g.TimeW[e])
			}
		}
	}
	return bd.Build("disjoint")
}

func TestBuildMatchesMergePrunedBuild(t *testing.T) {
	ladder := func(name string) *graph.Graph {
		spec, _ := gen.LadderSpec(name)
		return gen.Network(spec)
	}
	golden := func(seed int64) *graph.Graph {
		return gen.Network(gen.NetworkSpec{Name: "golden", Rows: 20, Cols: 22, Seed: seed})
	}
	nw := ladder("NW")
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{name: "golden", g: golden(101)},
		{name: "golden travel time", g: golden(102).View(graph.TravelTime)},
		{name: "DE", g: ladder("DE")},
		{name: "NW", g: nw},
		{name: "NW travel time", g: nw.View(graph.TravelTime)},
		{name: "24x24 equal weights", g: equalGrid(24, 24)},
		{name: "two components", g: Disjoint(golden(103), ladder("DE"))},
	} {
		h := ch.Build(c.g)
		x := Build(c.g, h)
		off, hubs, dist := buildMergePruned(c.g, h)
		if !slices.Equal(x.off, off) || !slices.Equal(x.hubs, hubs) || !slices.Equal(x.dist, dist) {
			t.Errorf("%s: labels differ from pruned landmark labeling (%d vs %d entries)",
				c.name, len(x.hubs), len(hubs))
		}
	}
}

// TestBuildAllocs gates the build's allocation count: a fixed set of
// arrays plus a doubling arena, not one allocation per label entry (the
// per-root Dijkstra build made about 300k on NW).
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	spec, _ := gen.LadderSpec("DE")
	g := gen.Network(spec)
	h := ch.Build(g)
	if allocs := testing.AllocsPerRun(5, func() { Build(g, h) }); allocs > 64 {
		t.Fatalf("Build allocates %v times on DE, want <= 64", allocs)
	}
}
