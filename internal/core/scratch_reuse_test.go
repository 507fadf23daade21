package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/gtree"
	"rnknn/internal/ier"
	"rnknn/internal/knn"
)

// reuseGraphs are the three networks the dirty-scratch property is checked
// on.
var reuseGraphs = []gen.NetworkSpec{
	{Name: "r-small", Rows: 8, Cols: 10, Seed: 61},
	{Name: "r-mid", Rows: 14, Cols: 18, Seed: 67},
	{Name: "r-wide", Rows: 10, Cols: 32, Seed: 71},
}

// TestDirtyScratchReuse pins the correctness half of the scratch-arena
// contract: a session whose stamped scratch has been dirtied by 200
// consecutive mixed queries (KNN, streamed KNN with deliberate early
// breaks, Range) of varying k and query vertex answers every query
// byte-identically to a session manufactured fresh for that one query.
// Early-broken streams are the nastiest case — they abandon a scan midway
// and leave heaps, stamped sets, and pending buffers mid-state for the
// next query's O(1) reset to neutralize.
func TestDirtyScratchReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every index on three graphs")
	}
	for _, spec := range reuseGraphs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g := gen.Network(spec)
			e := core.New(g)
			objs := knn.NewObjectSet(g, gen.Uniform(g, 0.06, int64(spec.Seed)+1))
			for _, form := range sessionForms(e, objs) {
				t.Run(form.name, func(t *testing.T) {
					warm, err := form.new()
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(spec.Seed)))
					for i := 0; i < 200; i++ {
						fresh, err := form.new()
						if err != nil {
							t.Fatal(err)
						}
						q := int32(rng.Intn(g.NumVertices()))
						k := 1 + rng.Intn(12)
						var got, want []knn.Result
						var op string
						switch i % 3 {
						case 0:
							op = fmt.Sprintf("KNN(q=%d,k=%d)", q, k)
							got = warm.KNNAppend(q, k, nil)
							want = fresh.KNNAppend(q, k, nil)
						case 1:
							// Streamed, breaking early on some iterations to
							// abandon the scan with scratch mid-state.
							stop := k
							if i%5 == 0 && k > 1 {
								stop = k / 2
							}
							op = fmt.Sprintf("KNNSeq(q=%d,k=%d,stop=%d)", q, k, stop)
							got = collectStream(warm, q, k, stop)
							want = collectStream(fresh, q, k, stop)
						case 2:
							rm, ok := warm.(knn.RangeMethod)
							if !ok {
								op = fmt.Sprintf("KNN(q=%d,k=%d)", q, k)
								got = warm.KNNAppend(q, k, nil)
								want = fresh.KNNAppend(q, k, nil)
								break
							}
							radius := graph.Dist(1000 + rng.Intn(8000))
							op = fmt.Sprintf("Range(q=%d,r=%d)", q, radius)
							got = rm.RangeAppend(q, radius, nil)
							want = fresh.(knn.RangeMethod).RangeAppend(q, radius, nil)
						}
						if !identicalResults(got, want) {
							t.Fatalf("step %d %s: reused session diverged:\n got %s\nwant %s",
								i, op, knn.FormatResults(got), knn.FormatResults(want))
						}
					}
				})
			}
		})
	}
}

// querySession is what the session tests drive: a served core.Session, or
// an IER form only the figure harness builds (internal/exp), which reuses
// ier's scratch the same way and is held to the same properties.
type querySession interface {
	knn.Method
	knn.Streamer
}

// sessionForm manufactures fresh sessions of one form, all over one binding
// of the test's objects.
type sessionForm struct {
	name string
	new  func() (querySession, error)
}

// sessionForms lists every served kind, then the harness's IER-Dijk and
// IER-Gt: IER over the resumable Dijkstra and over G-tree's assembly, as
// internal/exp builds them.
func sessionForms(e *core.Engine, objs *knn.ObjectSet) []sessionForm {
	var forms []sessionForm
	for _, kind := range core.Kinds() {
		b := e.NewBinding(objs, []core.MethodKind{kind})
		forms = append(forms, sessionForm{kind.String(), func() (querySession, error) { return e.NewSession(kind, b) }})
	}
	rt := ier.NewObjectTree(e.G, objs)
	for _, f := range []struct {
		name    string
		factory func() knn.SourceFactory
	}{
		{"IER-Dijk", func() knn.SourceFactory { return &ier.DijkstraFactory{G: e.G} }},
		{"IER-Gt", func() knn.SourceFactory { return &gtree.Factory{Idx: e.GtreeIndex()} }},
	} {
		forms = append(forms, sessionForm{f.name, func() (querySession, error) {
			return ier.NewWithTree(f.name, e.G, objs, rt, f.factory()), nil
		}})
	}
	return forms
}

// collectStream gathers at most stop results from a streamed kNN query,
// returning false from yield (an early consumer break) once reached.
func collectStream(s querySession, q int32, k, stop int) []knn.Result {
	var out []knn.Result
	s.KNNStream(q, k, func(r knn.Result) bool {
		out = append(out, r)
		return len(out) < stop
	})
	return out
}

// identicalResults demands byte-identical answers — same vertices in the
// same order, not just SameResults' tie-tolerant agreement: a fresh and a
// reused session run the identical deterministic search, so any divergence
// (even among ties) means dirty scratch leaked into the query.
func identicalResults(a, b []knn.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
