package gtree

import (
	"slices"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/partition"
)

// TestBorderDistsMatchReference checks that the branch-free min-plus in
// BorderDists assembles, for every node and source, the slices
// refSource.BorderDists does, with the same path cost, and that DistanceTo
// and kNN answer from them exactly as from the reference's slices. The
// two-islands graph is there for its no-path cells: only a disconnected
// graph keeps inf32 in a refined matrix.
func TestBorderDistsMatchReference(t *testing.T) {
	spec := func(seed int64) gen.NetworkSpec {
		return gen.NetworkSpec{Name: "t", Rows: 20, Cols: 22, Seed: seed}
	}
	cases := []struct {
		name string
		g    *graph.Graph
		tau  int
	}{
		{"distance", gen.Network(spec(88)), 32},
		{"travel-time", gen.Network(spec(89)).View(graph.TravelTime), 24},
		{"unit-grid", unitGrid(24, 24), 32},
		{"split-leaves", twoChains(240, true), 16},
		{"two-islands", twoChains(240, false), 16},
	}
	noPath := false
	for _, tc := range cases {
		x := BuildOnPartition(tc.g, partition.Build(tc.g, partition.Options{Fanout: 4, MaxLeafSize: tc.tau}), tc.tau)
		noPath = noPath || slices.ContainsFunc(x.nodes, func(n node) bool { return slices.Contains(n.mat, inf32) })
		queries := gen.QueryVertices(tc.g, 24, 3)
		for _, density := range []float64{0.001, 0.01, 0.1} {
			ol := x.NewOccurrenceList(knn.NewObjectSet(tc.g, gen.Uniform(tc.g, density, 5)))
			got, want := NewKNN(x, ol), NewKNN(x, ol)
			for _, q := range queries {
				cur, ref := x.NewSource(q), refSource{x.NewSource(q)}
				for ni := range x.nodes {
					a, b := cur.BorderDists(int32(ni)), ref.BorderDists(int32(ni))
					if !slices.Equal(a, b) || cur.PathCost != ref.PathCost {
						t.Fatalf("%s q=%d node %d: %v (path cost %d), reference %v (%d)",
							tc.name, q, ni, a, cur.PathCost, b, ref.PathCost)
					}
				}
				// ref now holds every node's reference slice, so its
				// DistanceTo reads them instead of assembling.
				fresh := x.NewSource(q)
				for v := int32(0); v < int32(tc.g.NumVertices()); v += 7 {
					if a, b := fresh.DistanceTo(v), ref.DistanceTo(v); a != b {
						t.Fatalf("%s q=%d: DistanceTo(%d) = %d, reference %d", tc.name, q, v, a, b)
					}
				}
				for _, k := range []int{1, 10, 50} {
					preloadReference(x, &want.src, q)
					a, b := got.KNN(q, k), want.KNN(q, k)
					if !slices.Equal(a, b) {
						t.Fatalf("%s d=%v q=%d k=%d: %s, reference %s",
							tc.name, density, q, k, knn.FormatResults(a), knn.FormatResults(b))
					}
				}
			}
		}
	}
	if !noPath {
		t.Fatal("no case holds an inf32 cell, so the no-path guard is never exercised")
	}
}

// preloadReference fills s's arena with the reference's slices for source q
// and stamps them for the generation the next Reset starts, so a kNN query
// on s reads the reference's border distances instead of assembling its own.
func preloadReference(x *Index, s *Source, q int32) {
	s.Reset(x, q)
	ref := refSource{s}
	for ni := range s.stamp {
		ref.BorderDists(int32(ni))
	}
	for ni := range s.stamp {
		s.stamp[ni] = s.cur + 1
	}
}

// refSource carries the reference assembly, which shadows BorderDists.
type refSource struct{ *Source }

// BorderDists is the assembly as it was before the array layout's min-plus
// went branch-free, kept as the reference the current loop must reproduce.
func (s refSource) BorderDists(ni int32) []graph.Dist {
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
			// once (the Section 6.1 spatial-locality access pattern).
			for i := range cd {
				if cd[i] == graph.Inf {
					continue
				}
				row := n.mat[(base+int32(i))*n.stride:]
				for j := range out {
					w := row[n.ownIdx[j]]
					if w >= inf32 {
						continue
					}
					if d := cd[i] + graph.Dist(w); d < out[j] {
						out[j] = d
					}
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
		for j := 0; j < nb; j++ {
			out[j] = graph.Inf
		}
		if x.layout == ArrayLayout {
			for i := range fromD {
				if fromD[i] == graph.Inf {
					continue
				}
				row := pn.mat[fromIdx[i]*pn.stride+myBase:]
				for j := 0; j < nb; j++ {
					w := row[j]
					if w >= inf32 {
						continue
					}
					if d := fromD[i] + graph.Dist(w); d < out[j] {
						out[j] = d
					}
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
