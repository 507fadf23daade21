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
