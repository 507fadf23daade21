package graph

import (
	"math"
	"testing"
)

// buildTriangle returns a 4-vertex graph: 0-1-2 path plus edge 0-2 and
// pendant 2-3.
func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	x := []float64{0, 10, 20, 30}
	y := []float64{0, 0, 0, 0}
	b := NewBuilder(4, x, y)
	b.AddEdge(0, 1, 10, 5)
	b.AddEdge(1, 2, 10, 5)
	b.AddEdge(0, 2, 25, 9)
	b.AddEdge(2, 3, 10, 5)
	return b.Build("tri")
}

func TestBuilderBasics(t *testing.T) {
	g := buildTriangle(t)
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 8 {
		t.Fatalf("NumEdges = %d, want 8 directed entries", g.NumEdges())
	}
	if g.Degree(0) != 2 || g.Degree(2) != 3 || g.Degree(3) != 1 {
		t.Fatalf("unexpected degrees: %d %d %d", g.Degree(0), g.Degree(2), g.Degree(3))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	g := buildTriangle(t)
	w, ok := g.EdgeWeightBetween(0, 2)
	if !ok || w != 25 {
		t.Fatalf("EdgeWeightBetween(0,2) = %d,%v", w, ok)
	}
	w2, ok2 := g.EdgeWeightBetween(2, 0)
	if !ok2 || w2 != w {
		t.Fatalf("asymmetric weight %d vs %d", w, w2)
	}
	if _, ok := g.EdgeWeightBetween(0, 3); ok {
		t.Fatal("phantom edge 0-3")
	}
}

// TestEdgeWeightBetweenParallelArcs pins that parallel arcs, which the
// Builder merges but a CSR from elsewhere (a DIMACS file, a mapped
// snapshot) may hold, report their least weight in either view, whichever
// arc comes first.
func TestEdgeWeightBetweenParallelArcs(t *testing.T) {
	g := &Graph{
		Name:    "parallel",
		Offsets: []int32{0, 2, 4},
		Targets: []int32{1, 1, 0, 0},
		DistW:   []int32{9, 4, 4, 9},
		TimeW:   []int32{2, 7, 7, 2},
		X:       []float64{0, 1},
		Y:       []float64{0, 0},
	}
	g = g.View(TravelDistance)
	for _, c := range []struct {
		g    *Graph
		u, v int32
		want int32
	}{{g, 0, 1, 4}, {g, 1, 0, 4}, {g.View(TravelTime), 0, 1, 2}, {g.View(TravelTime), 1, 0, 2}} {
		if w, ok := c.g.EdgeWeightBetween(c.u, c.v); !ok || w != c.want {
			t.Fatalf("%v EdgeWeightBetween(%d,%d) = %d,%v, want %d", c.g.Kind, c.u, c.v, w, ok, c.want)
		}
	}
}

func TestViewSwitchesWeights(t *testing.T) {
	g := buildTriangle(t)
	tv := g.View(TravelTime)
	wd, _ := g.EdgeWeightBetween(0, 1)
	wt, _ := tv.EdgeWeightBetween(0, 1)
	if wd != 10 || wt != 5 {
		t.Fatalf("weights: dist=%d time=%d", wd, wt)
	}
	if tv.Kind != TravelTime || g.Kind != TravelDistance {
		t.Fatal("View must not mutate the receiver")
	}
	// Topology shared.
	if tv.NumEdges() != g.NumEdges() {
		t.Fatal("view changed topology")
	}
}

func TestEuclidAndLB(t *testing.T) {
	g := buildTriangle(t)
	if d := g.Euclid(0, 2); math.Abs(d-20) > 1e-9 {
		t.Fatalf("Euclid(0,2) = %v", d)
	}
	if lb := g.EuclidLB(0, 2); lb != 20 {
		t.Fatalf("EuclidLB = %d", lb)
	}
}

func TestMaxSpeed(t *testing.T) {
	g := buildTriangle(t)
	// Distance kind: edge 0-1 has dE=10,w=10 -> ratio 1; edge 0-2 dE=20,w=25
	// -> 0.8. Max is 1.
	if s := g.MaxSpeed(); math.Abs(s-1.0) > 1e-9 {
		t.Fatalf("MaxSpeed dist = %v", s)
	}
	tv := g.View(TravelTime)
	// Time kind: edge 0-1 dE=10,w=5 -> 2; 0-2: 20/9=2.22; 1-2: 10/5=2.
	if s := tv.MaxSpeed(); math.Abs(s-20.0/9.0) > 1e-9 {
		t.Fatalf("MaxSpeed time = %v", s)
	}
}

func TestDuplicateEdgesKeepMin(t *testing.T) {
	x := []float64{0, 1}
	y := []float64{0, 0}
	b := NewBuilder(2, x, y)
	b.AddEdge(0, 1, 10, 10)
	b.AddEdge(1, 0, 7, 12)
	g := b.Build("dup")
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want deduplicated 2", g.NumEdges())
	}
	w, _ := g.EdgeWeightBetween(0, 1)
	if w != 7 {
		t.Fatalf("dedup kept %d, want min 7", w)
	}
	tw, _ := g.View(TravelTime).EdgeWeightBetween(0, 1)
	if tw != 10 {
		t.Fatalf("dedup kept time %d, want min 10", tw)
	}
}

func TestValidateRejectsDisconnected(t *testing.T) {
	x := []float64{0, 1, 10, 11}
	y := []float64{0, 0, 0, 0}
	b := NewBuilder(4, x, y)
	b.AddEdge(0, 1, 2, 2)
	b.AddEdge(2, 3, 2, 2)
	g := b.Build("disc")
	if g.Connected() {
		t.Fatal("graph should be disconnected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject disconnected graph")
	}
}

func TestDegreeHistogramAndChains(t *testing.T) {
	g := buildTriangle(t)
	hist := g.DegreeHistogram()
	// degrees: v0=2 v1=2 v2=3 v3=1
	if hist[1] != 1 || hist[2] != 2 || hist[3] != 1 {
		t.Fatalf("hist = %v", hist)
	}
	if f := g.ChainFraction(); math.Abs(f-0.75) > 1e-9 {
		t.Fatalf("ChainFraction = %v", f)
	}
}
