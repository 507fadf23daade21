package road

import (
	"slices"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

// TestKNNMatchesReferenceBypass checks that skipping closed shortcut rows
// changes nothing a query reports: per query, the results (ties in the same
// order), VisitedVertices and VerticesBypassed equal those of refKNN, which
// relaxes every row. On NW at density 0.001 it also requires rows to have
// been skipped, so the comparison is not vacuous.
func TestKNNMatchesReferenceBypass(t *testing.T) {
	nw, _ := gen.LadderSpec("NW")
	de, _ := gen.LadderSpec("DE")
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"NW distance", gen.Network(nw)},
		{"DE travel-time", gen.Network(de).View(graph.TravelTime)},
		{"unit-grid", unitGrid(24, 24)},
	}
	for _, tc := range cases {
		idx := Build(tc.g)
		queries := gen.QueryVertices(tc.g, 16, 7)
		for _, density := range []float64{0.0001, 0.001, 0.01, 0.1} {
			ad := idx.NewAssociationDirectory(knn.NewObjectSet(tc.g, gen.Uniform(tc.g, density, 11)))
			got, want := NewKNN(idx, ad), &refKNN{KNN: NewKNN(idx, ad)}
			rows := 0
			for _, k := range []int{1, 10, 50} {
				for _, q := range queries {
					a := got.KNNAppend(q, k, nil)
					var b []knn.Result
					want.KNNStream(q, k, func(r knn.Result) bool { b = append(b, r); return true })
					if !slices.Equal(a, b) || got.VisitedVertices != want.VisitedVertices ||
						got.VerticesBypassed != want.VerticesBypassed {
						t.Fatalf("%s d=%v k=%d q=%d: %s settled %d bypassed %d; reference %s settled %d bypassed %d",
							tc.name, density, k, q, knn.FormatResults(a), got.VisitedVertices, got.VerticesBypassed,
							knn.FormatResults(b), want.VisitedVertices, want.VerticesBypassed)
					}
					rows += got.RowsRelaxed
				}
			}
			if tc.name == "NW distance" && density == 0.001 && rows >= want.rows {
				t.Fatalf("NW d=0.001: relaxed %d shortcut rows, the reference %d: no row was skipped", rows, want.rows)
			}
		}
	}
}

// unitGrid is a rows x cols grid with every edge of weight 1, so nearly
// every label is reached by several equal paths.
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

// refKNN carries the reference expansion, whose methods shadow the current
// ones of the same names: the loop as it was before closed shortcut rows
// were skipped, kept verbatim apart from rows, which counts the shortcut
// rows it relaxed, the queue, which is the method's decrease-key
// IndexedQueue (on the old duplicate-tolerant Queue, ties pop in another
// order and settled counts drift by one), and the stop once every object
// is settled, which the method took on later and which has nothing to do
// with shortcut rows.
type refKNN struct {
	*KNN
	rows int
}

func (x *refKNN) KNNStream(qv int32, k int, yield func(knn.Result) bool) {
	pt := x.idx.PT
	x.dist.Reset()
	x.q.Reset()
	x.VisitedVertices, x.VerticesBypassed = 0, 0

	leafQ := pt.LeafOf[qv]
	for i := range x.qAnc {
		x.qAnc[i] = -1
	}
	for n := leafQ; n != -1; n = pt.Nodes[n].Parent {
		x.qAnc[pt.Nodes[n].Level] = n
	}
	k = min(k, x.ad.objs.Len())
	found := 0
	x.push(qv, 0)
	for !x.q.Empty() && found < k {
		it := x.q.Pop()
		v, d := it.ID, graph.Dist(it.Key)
		x.VisitedVertices++
		if x.interrupt != nil && x.VisitedVertices%knn.InterruptStride == 0 && x.interrupt() {
			break
		}
		if x.ad.IsObject(v) {
			found++
			if !yield(knn.Result{Vertex: v, Dist: d}) {
				break
			}
			if found == k {
				break
			}
		}
		x.relaxShortcuts(v, d, qv, leafQ)
	}
}

func (x *refKNN) relaxShortcuts(v int32, d graph.Dist, qv, leafQ int32) {
	idx := x.idx
	pt := idx.PT
	if pt.LeafOf[v] == leafQ {
		x.relaxEdges(v, d, -1)
		return
	}
	for e := idx.roOff[v]; e < idx.roOff[v+1]; e++ {
		r := idx.roRnet[e]
		lvl := pt.Nodes[r].Level
		if int(lvl) < len(x.qAnc) && x.qAnc[lvl] == r {
			continue // Rnet contains the query; cannot bypass
		}
		if !x.ad.HasObjects(r) {
			x.bypass(r, idx.roBi[e], v, d)
			return
		}
	}
	x.relaxEdges(v, d, -1)
}

func (x *refKNN) bypass(r, bi, v int32, d graph.Dist) {
	idx := x.idx
	bs := idx.borders[r]
	nb := int32(len(bs))
	base := idx.matOff[r] + bi*nb
	for bj := int32(0); bj < nb; bj++ {
		if w := idx.shorts[base+bj]; w < inf32 {
			x.push(bs[bj], d+graph.Dist(w))
		}
	}
	x.rows++
	x.relaxEdges(v, d, r)
	x.VerticesBypassed += len(idx.PT.Nodes[r].Vertices)
}

func (x *refKNN) relaxEdges(v int32, d graph.Dist, skipInside int32) {
	g := x.idx.G
	pt := x.idx.PT
	ts, ws := g.Neighbors(v)
	for i, t := range ts {
		if skipInside >= 0 && pt.Contains(skipInside, t) {
			continue
		}
		x.push(t, d+graph.Dist(ws[i]))
	}
}

func (x *refKNN) push(t int32, nd graph.Dist) {
	if x.dist.Lower(t, nd) {
		x.q.PushOrDecrease(t, int64(nd))
	}
}
