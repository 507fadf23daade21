package core_test

import (
	"math"
	"math/rand"
	"testing"

	"rnknn/internal/core"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

// Adversarial topologies: a pure cycle (every vertex degree 2 — the chain
// optimisation's extreme), a line (degree 1 endpoints), a star (one hub),
// and a dumbbell (two blobs joined by a long chain — remote queries).

func ringGraph(n int) *graph.Graph {
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		x[i] = 1000 * math.Cos(a)
		y[i] = 1000 * math.Sin(a)
	}
	b := graph.NewBuilder(n, x, y)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		d := int32(math.Ceil(math.Hypot(x[i]-x[j], y[i]-y[j]))) + 1
		b.AddEdge(int32(i), int32(j), d, d)
	}
	return b.Build("ring")
}

func lineGraph(n int) *graph.Graph {
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i) * 50
	}
	b := graph.NewBuilder(n, x, y)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1), 55, 20)
	}
	return b.Build("line")
}

func starGraph(n int) *graph.Graph {
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 1; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n-1)
		x[i] = 500 * math.Cos(a)
		y[i] = 500 * math.Sin(a)
	}
	b := graph.NewBuilder(n, x, y)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i), 520, 130)
	}
	return b.Build("star")
}

func dumbbellGraph(side, chain int) *graph.Graph {
	n := 2*side + chain
	x := make([]float64, n)
	y := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < side; i++ {
		x[i] = rng.Float64() * 300
		y[i] = rng.Float64() * 300
		x[side+chain+i] = 20000 + rng.Float64()*300
		y[side+chain+i] = rng.Float64() * 300
	}
	for i := 0; i < chain; i++ {
		x[side+i] = 400 + float64(i+1)*19000/float64(chain+1)
		y[side+i] = 150
	}
	b := graph.NewBuilder(n, x, y)
	add := func(u, v int) {
		d := int32(math.Ceil(math.Hypot(x[u]-x[v], y[u]-y[v]))) + 1
		b.AddEdge(int32(u), int32(v), d, d/2+1)
	}
	// Dense-ish blobs: each vertex linked to the next two.
	for i := 0; i+1 < side; i++ {
		add(i, i+1)
		if i+2 < side {
			add(i, i+2)
		}
		add(side+chain+i, side+chain+i+1)
		if i+2 < side {
			add(side+chain+i, side+chain+i+2)
		}
	}
	// Chain joining the blobs.
	add(side-1, side)
	for i := 0; i+1 < chain; i++ {
		add(side+i, side+i+1)
	}
	add(side+chain-1, side+chain)
	return b.Build("dumbbell")
}

func TestAllMethodsOnAdversarialTopologies(t *testing.T) {
	graphs := []*graph.Graph{
		ringGraph(60),
		lineGraph(80),
		starGraph(40),
		dumbbellGraph(30, 40),
	}
	rng := rand.New(rand.NewSource(4))
	for _, g := range graphs {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid: %v", g.Name, err)
		}
		e := core.New(g)
		n := g.NumVertices()
		// A handful of objects spread over the topology.
		var verts []int32
		for i := 0; i < 6; i++ {
			verts = append(verts, int32(rng.Intn(n)))
		}
		objs := knn.NewObjectSet(g, verts)
		for _, kind := range core.Kinds() {
			m, err := e.NewSession(kind, e.NewBinding(objs, []core.MethodKind{kind}))
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Name, kind, err)
			}
			for trial := 0; trial < 8; trial++ {
				q := int32(rng.Intn(n))
				k := 1 + rng.Intn(6)
				got := m.KNN(q, k)
				want := knn.BruteForce(g, objs, q, k)
				if !knn.SameResults(got, want) {
					t.Fatalf("%s/%v q=%d k=%d: got %s want %s", g.Name, kind, q, k,
						knn.FormatResults(got), knn.FormatResults(want))
				}
			}
		}
	}
}

func TestTwoVertexGraph(t *testing.T) {
	b := graph.NewBuilder(2, []float64{0, 10}, []float64{0, 0})
	b.AddEdge(0, 1, 12, 5)
	g := b.Build("pair")
	e := core.New(g)
	objs := knn.NewObjectSet(g, []int32{1})
	for _, kind := range core.Kinds() {
		m, err := e.NewSession(kind, e.NewBinding(objs, []core.MethodKind{kind}))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		got := m.KNN(0, 1)
		if len(got) != 1 || got[0].Vertex != 1 || got[0].Dist != 12 {
			t.Fatalf("%v: got %s", kind, knn.FormatResults(got))
		}
	}
}
