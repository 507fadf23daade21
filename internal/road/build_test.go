package road

import (
	"slices"
	"sort"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/partition"
	"rnknn/internal/pqueue"
	"rnknn/internal/scratch"
)

// BenchmarkROADBuild is the in-tree twin of rnbench's build.road_s:
// partitioning NW and building its ROAD index with the default levels.
func BenchmarkROADBuild(b *testing.B) {
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	b.ReportAllocs()
	for b.Loop() {
		Build(g)
	}
}

// TestBuildMatchesReferenceShortcuts checks that the shortcuts taken from
// G-tree's constrained cliques, and the overlay laid out in partition
// level order, are array for array those of referenceBuild, which computed
// both itself.
func TestBuildMatchesReferenceShortcuts(t *testing.T) {
	spec := func(seed int64) gen.NetworkSpec {
		return gen.NetworkSpec{Name: "t", Rows: 20, Cols: 22, Seed: seed}
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"distance", gen.Network(spec(88))},
		{"travel-time", gen.Network(spec(89)).View(graph.TravelTime)},
		{"unit-grid", unitGrid(24, 24)},
		{"two-chains", twoChains(240)},
	}
	for _, tc := range cases {
		got := Build(tc.g)
		want := referenceBuild(tc.g, got.PT, got.Levels)
		if !slices.EqualFunc(got.borders, want.borders, slices.Equal) {
			t.Errorf("%s: borders differ from the reference", tc.name)
		}
		for name, pair := range map[string][2][]int32{
			"shorts": {got.shorts, want.shorts},
			"matOff": {got.matOff, want.matOff},
			"roOff":  {got.roOff, want.roOff},
			"roRnet": {got.roRnet, want.roRnet},
			"roBi":   {got.roBi, want.roBi},
		} {
			if !slices.Equal(pair[0], pair[1]) {
				t.Errorf("%s: %s differs from the reference", tc.name, name)
			}
		}
		// The two chains are joined nowhere, so some border reaches another
		// of its Rnet by no path at all.
		if tc.name == "two-chains" && !slices.Contains(got.shorts, inf32) {
			t.Errorf("two-chains: no shortcut is unreachable")
		}
	}
}

// twoChains lays n vertices (n even) on a line and joins the even ones and
// the odd ones into two chains that never meet, so Rnets cut from the line
// hold pieces of both and some of their borders cannot reach each other.
func twoChains(n int) *graph.Graph {
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	b := graph.NewBuilder(n, x, y)
	for i := int32(0); i+2 < int32(n); i++ {
		b.AddEdge(i, i+2, 2+i%3, 3)
	}
	return b.Build("two-chains")
}

// referenceBuild is BuildOnPartition as it was before the shortcuts came
// from gtree.BorderCliques: its own border scan, leaf Rnets by Dijkstra on
// the leaf subgraph, inner Rnets by Dijkstra over an adjacency-list border
// graph whose cut edges are found by PartOf walks, and nodes in stable
// level order (insertion sorts there). Kept as the reference BuildOnPartition must reproduce
// array for array.
func referenceBuild(g *graph.Graph, pt *partition.Tree, levels int) *Index {
	x := refIndex{&Index{G: g, PT: pt, Levels: levels}}
	x.computeBorders()
	x.computeShortcuts()
	x.buildRouteOverlay()
	return x.Index
}

// refIndex carries the reference build's methods, which shadow the current
// ones of the same names.
type refIndex struct{ *Index }

func (x refIndex) buildRouteOverlay() {
	n := x.G.NumVertices()
	type entry struct {
		rnet int32
		bi   int32
	}
	per := make([][]entry, n)
	for _, ni := range stableByLevel(x.PT, false) {
		for bi, v := range x.borders[ni] {
			per[v] = append(per[v], entry{ni, int32(bi)})
		}
	}
	x.roOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		x.roOff[v+1] = x.roOff[v] + int32(len(per[v]))
	}
	total := x.roOff[n]
	x.roRnet = make([]int32, total)
	x.roBi = make([]int32, total)
	for v := 0; v < n; v++ {
		base := x.roOff[v]
		for i, e := range per[v] {
			x.roRnet[base+int32(i)] = e.rnet
			x.roBi[base+int32(i)] = e.bi
		}
	}
}

// stableByLevel orders the tree's nodes by level, deepest first when desc,
// keeping index order within a level: the order the old build's two
// insertion sorts produced.
func stableByLevel(pt *partition.Tree, desc bool) []int32 {
	order := make([]int32, len(pt.Nodes))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := pt.Nodes[order[a]].Level, pt.Nodes[order[b]].Level
		if desc {
			return la > lb
		}
		return la < lb
	})
	return order
}

func (x refIndex) computeBorders() {
	pt := x.PT
	x.borders = make([][]int32, len(pt.Nodes))
	for u := int32(0); u < int32(x.G.NumVertices()); u++ {
		ts, _ := x.G.Neighbors(u)
		leafU := pt.LeafOf[u]
		for _, v := range ts {
			if pt.LeafOf[v] == leafU {
				continue
			}
			n := leafU
			for n != -1 && !pt.Contains(n, v) {
				if bs := x.borders[n]; len(bs) == 0 || bs[len(bs)-1] != u {
					x.borders[n] = append(x.borders[n], u)
				}
				n = pt.Nodes[n].Parent
			}
		}
	}
}

func (x refIndex) computeShortcuts() {
	pt := x.PT
	x.matOff = make([]int32, len(pt.Nodes)+1)
	for ni := range pt.Nodes {
		b := len(x.borders[ni])
		x.matOff[ni+1] = x.matOff[ni] + int32(b*b)
	}
	x.shorts = make([]int32, x.matOff[len(pt.Nodes)])
	pos := scratch.NewMap32(x.G.NumVertices())
	for _, ni := range stableByLevel(pt, true) {
		if pt.Nodes[ni].IsLeaf() {
			x.shortcutsOfLeaf(ni, pos)
		} else {
			x.shortcutsOfInner(ni, pos)
		}
	}
}

func (x refIndex) setShortcut(ni, bi, bj int32, d graph.Dist) {
	nb := int32(len(x.borders[ni]))
	w := inf32
	if d < graph.Dist(inf32) {
		w = int32(d)
	}
	x.shorts[x.matOff[ni]+bi*nb+bj] = w
}

func (x refIndex) shortcutsOfLeaf(ni int32, pos *scratch.Map32) {
	pt := x.PT
	verts := pt.Nodes[ni].Vertices
	bs := x.borders[ni]
	if len(bs) == 0 {
		return
	}
	off, tgt, w := partition.ExtractCSR(x.G, verts)
	pos.Reset()
	for i, v := range verts {
		pos.Put(v, int32(i))
	}
	dist := make([]graph.Dist, len(verts))
	q := pqueue.NewQueue(len(verts))
	for bi, b := range bs {
		for i := range dist {
			dist[i] = graph.Inf
		}
		q.Reset()
		src, _ := pos.Get(b)
		dist[src] = 0
		q.Push(src, 0)
		for !q.Empty() {
			it := q.Pop()
			v := it.ID
			d := graph.Dist(it.Key)
			if d > dist[v] {
				continue
			}
			for e := off[v]; e < off[v+1]; e++ {
				t := tgt[e]
				if nd := d + graph.Dist(w[e]); nd < dist[t] {
					dist[t] = nd
					q.Push(t, int64(nd))
				}
			}
		}
		for bj, b2 := range bs {
			p, _ := pos.Get(b2)
			x.setShortcut(ni, int32(bi), int32(bj), dist[p])
		}
	}
}

func (x refIndex) shortcutsOfInner(ni int32, pos *scratch.Map32) {
	pt := x.PT
	children := pt.Nodes[ni].Children
	var cb []int32
	pos.Reset()
	for _, c := range children {
		for _, b := range x.borders[c] {
			if _, ok := pos.Get(b); !ok {
				pos.Put(b, int32(len(cb)))
				cb = append(cb, b)
			}
		}
	}
	type arc struct {
		to int32
		w  int32
	}
	adj := make([][]arc, len(cb))
	for _, c := range children {
		bs := x.borders[c]
		nb := int32(len(bs))
		for i := int32(0); i < nb; i++ {
			pi, _ := pos.Get(bs[i])
			for j := int32(0); j < nb; j++ {
				if i == j {
					continue
				}
				w := x.shorts[x.matOff[c]+i*nb+j]
				if w < inf32 {
					pj, _ := pos.Get(bs[j])
					adj[pi] = append(adj[pi], arc{pj, w})
				}
			}
		}
	}
	childLevel := pt.Nodes[ni].Level + 1
	for _, u := range cb {
		ui, _ := pos.Get(u)
		ts, ws := x.G.Neighbors(u)
		for i, v := range ts {
			vi, ok := pos.Get(v)
			if !ok {
				continue
			}
			if pt.PartOf(u, childLevel) != pt.PartOf(v, childLevel) {
				adj[ui] = append(adj[ui], arc{vi, ws[i]})
			}
		}
	}
	bs := x.borders[ni]
	dist := make([]graph.Dist, len(cb))
	q := pqueue.NewQueue(len(cb))
	for bi, b := range bs {
		for i := range dist {
			dist[i] = graph.Inf
		}
		q.Reset()
		src, _ := pos.Get(b)
		dist[src] = 0
		q.Push(src, 0)
		for !q.Empty() {
			it := q.Pop()
			v := it.ID
			d := graph.Dist(it.Key)
			if d > dist[v] {
				continue
			}
			for _, a := range adj[v] {
				if nd := d + graph.Dist(a.w); nd < dist[a.to] {
					dist[a.to] = nd
					q.Push(a.to, int64(nd))
				}
			}
		}
		for bj, b2 := range bs {
			p, _ := pos.Get(b2)
			x.setShortcut(ni, int32(bi), int32(bj), dist[p])
		}
	}
}
