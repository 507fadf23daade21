package phl

import (
	"slices"
	"testing"

	"rnknn/internal/ch"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/pqueue"
)

// buildMergePruned is pruned landmark labeling with the prune test done by
// merging the root's and the popped vertex's labels — how Build worked
// before it pinned the root's label. Kept as the reference the scan-pruned
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

func TestBuildMatchesMergePrunedBuild(t *testing.T) {
	for _, seed := range []int64{101, 102} {
		g := gen.Network(gen.NetworkSpec{Name: "golden", Rows: 20, Cols: 22, Seed: seed})
		if seed == 102 {
			g = g.View(graph.TravelTime)
		}
		h := ch.Build(g)
		x := Build(g, h)
		off, hubs, dist := buildMergePruned(g, h)
		if !slices.Equal(x.off, off) || !slices.Equal(x.hubs, hubs) || !slices.Equal(x.dist, dist) {
			t.Fatalf("seed %d: scan-pruned labels differ from the merge-pruned build (%d vs %d entries)",
				seed, len(x.hubs), len(hubs))
		}
	}
}
