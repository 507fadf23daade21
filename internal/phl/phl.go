// Package phl provides the hub-labeling distance oracle that stands in for
// Pruned Highway Labeling in the IER compositions (Section 5; see DESIGN.md
// Substitutions). Labels are built by pruned landmark labeling (Akiba et
// al.): pruned Dijkstras from vertices in importance order — here the
// contraction-hierarchy rank, which yields small labels on road networks.
// A point-to-point query (Index.Distance) is a linear merge of two sorted
// hub lists; IER, which asks for many distances from one query vertex, pins
// that vertex's label once and scans each candidate's (Source) — the build's
// prune test works the same way. Like PHL, labels are smaller on
// travel-time graphs whose hierarchies prune more aggressively (Section
// 7.2, Appendix B.2).
package phl

import (
	"rnknn/internal/ch"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/pqueue"
)

// Index is a built hub labeling.
type Index struct {
	// Per-vertex labels in CSR form, sorted by hub id: the label of v is
	// hubs[off[v]:off[v+1]] with distances dist[off[v]:off[v+1]]. Hub ids
	// are importance ranks (0 = most important) in [0, |V|), so a label is
	// in pruning order and a hub can subscript a |V|-sized array (Source).
	off  []int32
	hubs []int32
	dist []int32
}

// Name implements knn.DistanceOracle.
func (x *Index) Name() string { return "PHL" }

// Build constructs the labeling for g. If hierarchy is nil a contraction
// hierarchy is built internally to obtain the vertex ordering.
func Build(g *graph.Graph, hierarchy *ch.Index) *Index {
	if hierarchy == nil {
		hierarchy = ch.Build(g)
	}
	n := g.NumVertices()
	// order[i] = vertex with importance i (0 = most important).
	order := make([]int32, n)
	for v := int32(0); v < int32(n); v++ {
		order[int32(n)-1-hierarchy.Rank(v)] = v
	}
	importance := make([]int32, n)
	for i, v := range order {
		importance[v] = int32(i)
	}

	// Growable per-vertex labels during construction.
	labHubs := make([][]int32, n)
	labDist := make([][]int32, n)

	// The prune test is the query's one-sided scan. Every more important
	// root has already run, so the root's label is final but for its own
	// entry (which no other label holds yet): it is pinned once per root
	// and each popped vertex costs one pass over its own label.
	tmp := newPin(n)

	dists := make([]graph.Dist, n)
	stamp := make([]uint32, n)
	var cur uint32
	q := pqueue.NewQueue(1024)
	for rank, root := range order {
		tmp.scatter(labHubs[root], labDist[root])
		cur++
		q.Reset()
		dists[root] = 0
		stamp[root] = cur
		q.Push(root, 0)
		for !q.Empty() {
			it := q.Pop()
			v := it.ID
			d := graph.Dist(it.Key)
			if stamp[v] != cur || d > dists[v] {
				continue
			}
			// Prune: if existing labels already certify a distance <= d,
			// the root does not need to cover v (nor anything beyond it).
			if tmp.scan(labHubs[v], labDist[v]) <= uint64(d) {
				continue
			}
			labHubs[v] = append(labHubs[v], int32(rank))
			labDist[v] = append(labDist[v], int32(d))
			ts, ws := g.Neighbors(v)
			for i, t := range ts {
				nd := d + graph.Dist(ws[i])
				if stamp[t] != cur || nd < dists[t] {
					dists[t] = nd
					stamp[t] = cur
					q.Push(t, int64(nd))
				}
			}
		}
		tmp.clear(labHubs[root])
	}

	// Pack into CSR.
	x := &Index{off: make([]int32, n+1)}
	total := 0
	for v := 0; v < n; v++ {
		total += len(labHubs[v])
		x.off[v+1] = int32(total)
	}
	x.hubs = make([]int32, total)
	x.dist = make([]int32, total)
	for v := 0; v < n; v++ {
		copy(x.hubs[x.off[v]:], labHubs[v])
		copy(x.dist[x.off[v]:], labDist[v])
	}
	return x
}

// Distance implements knn.DistanceOracle by merging the two hub lists.
func (x *Index) Distance(s, t int32) graph.Dist {
	if s == t {
		return 0
	}
	i, iEnd := x.off[s], x.off[s+1]
	j, jEnd := x.off[t], x.off[t+1]
	best := graph.Inf
	for i < iEnd && j < jEnd {
		hi, hj := x.hubs[i], x.hubs[j]
		switch {
		case hi == hj:
			if d := graph.Dist(x.dist[i]) + graph.Dist(x.dist[j]); d < best {
				best = d
			}
			i++
			j++
		case hi < hj:
			i++
		default:
			j++
		}
	}
	return best
}

// label returns v's hub list and the matching distances.
func (x *Index) label(v int32) (hubs, dist []int32) {
	lo, hi := x.off[v], x.off[v+1]
	return x.hubs[lo:hi], x.dist[lo:hi]
}

// AvgLabelSize returns the mean number of label entries per vertex (the
// label-size statistic behind PHL's index size, Figures 8 and 26).
func (x *Index) AvgLabelSize() float64 {
	return float64(len(x.hubs)) / float64(len(x.off)-1)
}

// SizeBytes estimates the index footprint.
func (x *Index) SizeBytes() int {
	return len(x.off)*4 + len(x.hubs)*4 + len(x.dist)*4
}

var _ knn.DistanceOracle = (*Index)(nil)
