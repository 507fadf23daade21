package phl_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"rnknn/internal/ch"
	"rnknn/internal/dijkstra"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/phl"
	"rnknn/internal/snapio"
)

func testGraph(t testing.TB, seed int64, rows, cols int) *graph.Graph {
	t.Helper()
	return gen.Network(gen.NetworkSpec{Name: "t", Rows: rows, Cols: cols, Seed: seed})
}

func TestDistanceMatchesDijkstra(t *testing.T) {
	g := testGraph(t, 91, 16, 16)
	x := phl.Build(g, ch.Build(g))
	solver := dijkstra.NewSolver(g)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tv := int32(rng.Intn(g.NumVertices()))
		if got, want := x.Distance(s, tv), solver.Distance(s, tv); got != want {
			t.Fatalf("d(%d,%d) = %d, want %d", s, tv, got, want)
		}
	}
}

func TestDistanceTravelTime(t *testing.T) {
	g := testGraph(t, 92, 14, 14).View(graph.TravelTime)
	x := phl.Build(g, ch.Build(g))
	solver := dijkstra.NewSolver(g)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tv := int32(rng.Intn(g.NumVertices()))
		if got, want := x.Distance(s, tv), solver.Distance(s, tv); got != want {
			t.Fatalf("time d(%d,%d) = %d, want %d", s, tv, got, want)
		}
	}
}

func TestSharedHierarchy(t *testing.T) {
	g := testGraph(t, 93, 10, 10)
	h := ch.Build(g)
	x := phl.Build(g, h)
	solver := dijkstra.NewSolver(g)
	for trial := int32(0); trial < 40; trial++ {
		s, tv := trial%17, (trial*7)%31
		if got, want := x.Distance(s, tv), solver.Distance(s, tv); got != want {
			t.Fatalf("d(%d,%d) = %d, want %d", s, tv, got, want)
		}
	}
}

func TestLabelStats(t *testing.T) {
	g := testGraph(t, 94, 12, 12)
	x := phl.Build(g, ch.Build(g))
	avg := x.AvgLabelSize()
	if avg < 1 {
		t.Fatalf("AvgLabelSize = %v; every vertex labels itself at least", avg)
	}
	if avg > float64(g.NumVertices())/2 {
		t.Fatalf("AvgLabelSize = %v; pruning is not working", avg)
	}
	if x.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestTimeLabelsSmallerThanDistance(t *testing.T) {
	// The paper observes PHL labels shrink on travel-time graphs thanks to
	// highway hierarchies (Section 7.2 / B.2); verify the substitute
	// preserves that direction on a network large enough to have tiers.
	g := testGraph(t, 95, 24, 24)
	xd := phl.Build(g, ch.Build(g))
	tg := g.View(graph.TravelTime)
	xt := phl.Build(tg, ch.Build(tg))
	if xt.AvgLabelSize() >= xd.AvgLabelSize()*1.25 {
		t.Fatalf("time labels (%.1f) much larger than distance labels (%.1f)",
			xt.AvgLabelSize(), xd.AvgLabelSize())
	}
}

func TestSelfDistance(t *testing.T) {
	g := testGraph(t, 96, 8, 8)
	x := phl.Build(g, ch.Build(g))
	if d := x.Distance(9, 9); d != 0 {
		t.Fatalf("self distance %d", d)
	}
}

// twoIslands is two copies of a generated network side by side with no
// edge between them: every cross-island distance is graph.Inf.
func twoIslands(t testing.TB) *graph.Graph {
	t.Helper()
	g := testGraph(t, 97, 9, 9)
	return phl.Disjoint(g, g)
}

// TestSourceMatchesDistanceAndDijkstra is the pinned scan's differential:
// over a distance graph, a travel-time view and a disconnected graph, 2,000
// consecutive NewSource calls on ONE Source (a stale scatter is the
// dirty-scratch bug class) with 20 targets each agree with the label merge
// and with Dijkstra, graph.Inf and s == t included.
func TestSourceMatchesDistanceAndDijkstra(t *testing.T) {
	islands := twoIslands(t)
	graphs := []*graph.Graph{
		testGraph(t, 98, 15, 17),
		testGraph(t, 99, 13, 13).View(graph.TravelTime),
		islands,
	}
	for _, g := range graphs {
		x := phl.Build(g, ch.Build(g))
		n := g.NumVertices()
		solver := dijkstra.NewSolver(g)
		src := x.NewSource()
		rng := rand.New(rand.NewSource(int64(n)))
		sawInf := false
		for pinned := 0; pinned < 2000; pinned++ {
			s := int32(rng.Intn(n))
			o := src.NewSource(s)
			if d := o.DistanceTo(s); d != 0 {
				t.Fatalf("%s: d(%d,%d) = %d", g.Name, s, s, d)
			}
			for i := 0; i < 20; i++ {
				tv := int32(rng.Intn(n))
				got := o.DistanceTo(tv)
				if want := x.Distance(s, tv); got != want {
					t.Fatalf("%s: pin %d: scan d(%d,%d) = %d, merge says %d", g.Name, pinned, s, tv, got, want)
				}
				// Dijkstra is the slow side: check it on a sample.
				if pinned%10 == 0 {
					if want := solver.Distance(s, tv); got != want {
						t.Fatalf("%s: d(%d,%d) = %d, Dijkstra says %d", g.Name, s, tv, got, want)
					}
				}
				sawInf = sawInf || got == graph.Inf
			}
		}
		if g == islands && !sawInf {
			t.Fatal("disconnected graph never answered graph.Inf")
		}
	}
}

func TestSourceZeroAllocs(t *testing.T) {
	g := testGraph(t, 100, 12, 12)
	x := phl.Build(g, ch.Build(g))
	src := x.NewSource()
	n := int32(g.NumVertices())
	s := int32(0)
	allocs := testing.AllocsPerRun(200, func() {
		o := src.NewSource(s)
		benchSink += o.DistanceTo((s*7 + 3) % n)
		s = (s + 1) % n
	})
	if allocs != 0 {
		t.Fatalf("NewSource+DistanceTo allocates %v per run, want 0", allocs)
	}
}

// TestReadRejectsOutOfRangeLabels: the decode path validates what the
// pinned scan later subscripts by — a hub outside [0, |V|) or a negative
// label distance is a bad snapshot, not an index.
func TestReadRejectsOutOfRangeLabels(t *testing.T) {
	g := testGraph(t, 103, 8, 8)
	x := phl.Build(g, ch.Build(g))
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	if _, err := phl.Read(snapio.NewSource(buf.Bytes(), false), n); err != nil {
		t.Fatalf("pristine section: %v", err)
	}
	// Locate the raw hubs and dist arrays inside the encoded section.
	arrays := func(data []byte) (hubs, dist []byte) {
		sr := snapio.NewSource(data, false)
		sr.U16()
		sr.AlignedRaw(4, 4) // off
		_, hubs, _ = sr.AlignedRaw(4, 4)
		_, dist, _ = sr.AlignedRaw(4, 4)
		return hubs, dist
	}
	for name, tamper := range map[string]func(hubs, dist []byte){
		"hub == |V|":    func(hubs, _ []byte) { binary.LittleEndian.PutUint32(hubs[8:], uint32(n)) },
		"negative hub":  func(hubs, _ []byte) { binary.LittleEndian.PutUint32(hubs[8:], 0xFFFFFFFF) },
		"negative dist": func(_, dist []byte) { binary.LittleEndian.PutUint32(dist[8:], 0x80000000) },
	} {
		data := bytes.Clone(buf.Bytes())
		tamper(arrays(data))
		if _, err := phl.Read(snapio.NewSource(data, false), n); err == nil {
			t.Errorf("%s: Read accepted the section", name)
		}
	}
}
