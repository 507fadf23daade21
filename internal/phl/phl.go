// Package phl provides the hub-labeling distance oracle that stands in for
// Pruned Highway Labeling in the IER compositions (Section 5; see
// docs/ARCHITECTURE.md's package table). The labels are those of pruned
// landmark labeling (Akiba et al.) with the contraction-hierarchy rank as
// vertex order, which yields small labels on road networks. They are not
// built by PLL's pruned Dijkstras but derived from the hierarchy (Abraham
// et al.'s hierarchical hub labelings): most important vertex first, a
// vertex's candidate hubs are its upward neighbours' final labels extended
// by the arc, and PLL's own prune test keeps exactly the entries PLL would
// (ARCHITECTURE.md "PHL labels from the hierarchy"). A point-to-point query
// (Index.Distance) is a linear merge of two sorted hub lists; IER, which
// asks for many distances from one query vertex, pins that vertex's label
// once and scans each candidate's (Source) — the build's prune test works
// the same way. Like PHL, labels are smaller on travel-time graphs whose
// hierarchies prune more aggressively (Section 7.2, Appendix B.2).
package phl

import (
	"slices"

	"rnknn/internal/ch"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
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

// Build constructs the labeling for g from its contraction hierarchy, whose
// ranks give the vertex ordering and whose upward arcs give the labels.
func Build(g *graph.Graph, hierarchy *ch.Index) *Index {
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

	// Labels in importance order in one arena: importance i's label is
	// hubs[aOff[i]:aOff[i+1]], final once i is done. Every label holds at
	// least its self entry, so n entries is the least the arena needs.
	aOff := make([]int32, n+1)
	hubs, dist := make([]int32, 0, n), make([]int32, 0, n)
	// cand holds v's candidate hubs (those listed in touched); kept holds
	// v's entries accepted so far, the label state the prune test scans.
	cand, kept := newPin(n), newPin(n)
	var touched []int32
	for i, v := range order {
		// Upward arcs lead to more important, finished vertices. (A hostile
		// mapped hierarchy's arc to an unfinished one reads an empty range:
		// aOff past i is still zero.)
		ts, ws := hierarchy.Up(v)
		for k, u := range ts {
			j, w := importance[u], uint32(ws[k])
			for e := aOff[j]; e < aOff[j+1]; e++ {
				h, d := hubs[e], w+uint32(dist[e])
				if cand[h] == far {
					touched = append(touched, h)
				}
				cand[h] = min(cand[h], d)
			}
		}
		// v's label has at most len(touched)+1 entries. Grow by doubling:
		// on NW, append's 1.25× steps cost 57 allocations and 85 MB per
		// build against 33 and 59 MB, and run slower.
		if need := len(hubs) + len(touched) + 1; need > cap(hubs) {
			c := max(2*cap(hubs), need)
			hubs = append(make([]int32, 0, c), hubs...)
			dist = append(make([]int32, 0, c), dist...)
		}
		// PLL's prune test, in the order PLL's roots run: when root h pops
		// v, h's label but for its self entry is pinned and scanned against
		// v's entries above h.
		slices.Sort(touched)
		start := len(hubs)
		for _, h := range touched {
			d := cand[h]
			cand[h] = far
			lo, hi := aOff[h], aOff[h+1]-1
			if kept.scan(hubs[lo:hi], dist[lo:hi]) <= uint64(d) {
				continue
			}
			kept[h] = d
			hubs = append(hubs, h)
			dist = append(dist, int32(d))
		}
		kept.clear(hubs[start:])
		touched = touched[:0]
		hubs = append(hubs, int32(i))
		dist = append(dist, 0)
		aOff[i+1] = int32(len(hubs))
	}

	// Permute the arena into vertex-ordered CSR.
	x := &Index{off: make([]int32, n+1)}
	for v, i := range importance {
		x.off[v+1] = x.off[v] + aOff[i+1] - aOff[i]
	}
	x.hubs, x.dist = make([]int32, x.off[n]), make([]int32, x.off[n])
	for v, i := range importance {
		copy(x.hubs[x.off[v]:], hubs[aOff[i]:aOff[i+1]])
		copy(x.dist[x.off[v]:], dist[aOff[i]:aOff[i+1]])
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
