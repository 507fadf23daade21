package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rnknn/internal/core"
	"rnknn/internal/dijkstra"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

// Property: on a random small network with a random object set, every
// method kind returns the brute-force answer for random (q, k).
func TestPropertyAllMethodsExact(t *testing.T) {
	f := func(seed int64, qSel, kSel uint8, density uint8) bool {
		rows := 8 + int(uint16(seed)%6)
		g := gen.Network(gen.NetworkSpec{Name: "p", Rows: rows, Cols: rows + 2, Seed: seed})
		d := 0.005 + float64(density%40)/200 // 0.005 .. 0.2
		objs := knn.NewObjectSet(g, gen.Uniform(g, d, seed+1))
		q := int32(int(qSel) % g.NumVertices())
		k := 1 + int(kSel)%8
		want := knn.BruteForce(g, objs, q, k)
		e := core.New(g)
		for _, kind := range core.Kinds() {
			m, err := e.NewSession(kind, e.NewBinding(objs, []core.MethodKind{kind}))
			if err != nil {
				return false
			}
			if !knn.SameResults(m.KNN(q, k), want) {
				t.Logf("%v failed on seed=%d q=%d k=%d d=%v", kind, seed, q, k, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: all distance oracles agree with Dijkstra on random pairs, for
// both weight kinds.
func TestPropertyOraclesExact(t *testing.T) {
	f := func(seed int64, timeWeights bool) bool {
		g := gen.Network(gen.NetworkSpec{Name: "p", Rows: 10, Cols: 12, Seed: seed})
		if timeWeights {
			g = g.View(graph.TravelTime)
		}
		e := core.New(g)
		oracles := []knn.DistanceOracle{e.CHIndex().NewSearcher(), e.PHLIndex(), e.TNRIndex().NewQuerier()}
		solver := dijkstra.NewSolver(g)
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20; trial++ {
			s := int32(rng.Intn(g.NumVertices()))
			tv := int32(rng.Intn(g.NumVertices()))
			want := solver.Distance(s, tv)
			for _, o := range oracles {
				if o.Distance(s, tv) != want {
					t.Logf("%s failed on seed=%d s=%d t=%d", o.Name(), seed, s, tv)
					return false
				}
			}
			// The materialized G-tree oracle too.
			if e.GtreeIndex().NewSource(s).DistanceTo(tv) != want {
				t.Logf("MGtree failed on seed=%d s=%d t=%d", seed, s, tv)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Property: kNN results are monotone in k — the (k)-NN answer is a prefix
// of the (k+5)-NN answer by distance sequence.
func TestPropertyKNNMonotoneInK(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "p", Rows: 12, Cols: 12, Seed: 181})
	e := core.New(g)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.05, 3))
	f := func(qSel uint16, kSel uint8) bool {
		q := int32(int(qSel) % g.NumVertices())
		k := 1 + int(kSel)%6
		for _, kind := range []core.MethodKind{core.Gtree, core.ROAD, core.IERPHL} {
			m, err := e.NewSession(kind, e.NewBinding(objs, []core.MethodKind{kind}))
			if err != nil {
				return false
			}
			small := m.KNN(q, k)
			big := m.KNN(q, k+5)
			if len(big) < len(small) {
				return false
			}
			for i := range small {
				if small[i].Dist != big[i].Dist {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: results never report a distance below the Euclidean lower bound
// (on travel-distance weights) and are sorted.
func TestPropertyResultInvariants(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "p", Rows: 12, Cols: 12, Seed: 182})
	e := core.New(g)
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.02, 4))
	f := func(qSel uint16) bool {
		q := int32(int(qSel) % g.NumVertices())
		for _, kind := range core.Kinds() {
			m, err := e.NewSession(kind, e.NewBinding(objs, []core.MethodKind{kind}))
			if err != nil {
				return false
			}
			rs := m.KNN(q, 5)
			prev := graph.Dist(-1)
			for _, r := range rs {
				if r.Dist < prev {
					return false
				}
				prev = r.Dist
				if r.Dist < g.EuclidLB(q, r.Vertex) {
					return false
				}
				if !objs.Contains(r.Vertex) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
