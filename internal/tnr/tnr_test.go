package tnr_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"rnknn/internal/ch"
	"rnknn/internal/dijkstra"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/snapio"
	"rnknn/internal/tnr"
)

func testGraph(t testing.TB, seed int64, rows, cols int) *graph.Graph {
	t.Helper()
	return gen.Network(gen.NetworkSpec{Name: "t", Rows: rows, Cols: cols, Seed: seed})
}

func TestDistanceMatchesDijkstra(t *testing.T) {
	g := testGraph(t, 101, 16, 16)
	x := tnr.Build(g, ch.Build(g)).NewQuerier()
	solver := dijkstra.NewSolver(g)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tv := int32(rng.Intn(g.NumVertices()))
		if got, want := x.Distance(s, tv), solver.Distance(s, tv); got != want {
			t.Fatalf("d(%d,%d) = %d, want %d", s, tv, got, want)
		}
	}
	if x.TableHits == 0 {
		t.Fatal("no query used the transit table")
	}
	if x.LocalHits == 0 {
		t.Fatal("no query used the local cones")
	}
}

func TestDistanceTravelTime(t *testing.T) {
	g := testGraph(t, 102, 14, 14).View(graph.TravelTime)
	x := tnr.Build(g, ch.Build(g)).NewQuerier()
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

// TestSharedHierarchy: a build reads the hierarchy it shares and leaves it
// as it was, so a second build over the same one answers exactly too.
func TestSharedHierarchy(t *testing.T) {
	g := testGraph(t, 103, 12, 12)
	h := ch.Build(g)
	first, second := tnr.Build(g, h).NewQuerier(), tnr.Build(g, h).NewQuerier()
	solver := dijkstra.NewSolver(g)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		tv := int32(rng.Intn(g.NumVertices()))
		want := solver.Distance(s, tv)
		if a, b := first.Distance(s, tv), second.Distance(s, tv); a != want || b != want {
			t.Fatalf("d(%d,%d) = %d and %d, want %d", s, tv, a, b, want)
		}
	}
}

// TestTransitLargerThanGraph: on a network of fewer than 24 vertices the
// default transit set (at least 24) is clamped to |V|.
func TestTransitLargerThanGraph(t *testing.T) {
	g := testGraph(t, 104, 3, 3)
	if g.NumVertices() >= 24 {
		t.Fatalf("test network has %d vertices, want fewer than 24", g.NumVertices())
	}
	idx := tnr.Build(g, ch.Build(g))
	if idx.NumTransit() != g.NumVertices() {
		t.Fatalf("NumTransit = %d, want clamped to |V| = %d", idx.NumTransit(), g.NumVertices())
	}
	x := idx.NewQuerier()
	solver := dijkstra.NewSolver(g)
	for s := int32(0); s < int32(g.NumVertices()); s++ {
		for tv := int32(0); tv < int32(g.NumVertices()); tv++ {
			if got, want := x.Distance(s, tv), solver.Distance(s, tv); got != want {
				t.Fatalf("d(%d,%d) = %d, want %d", s, tv, got, want)
			}
		}
	}
}

func TestSizeBytes(t *testing.T) {
	g := testGraph(t, 105, 10, 10)
	x := tnr.Build(g, ch.Build(g))
	if x.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

// TestReadRejectsMalformedAccess: a section whose access-node offsets or
// ids would send a query outside its arrays is refused on both decode
// paths. Accepted, an access offset past the access list panics the first
// query from vertex 0 with an index out of range, and an access node past
// the transit table subscripts outside it; the mapped path reads both
// without a copy, so it must scan them too.
func TestReadRejectsMalformedAccess(t *testing.T) {
	g := testGraph(t, 106, 12, 12)
	h := ch.Build(g)
	x := tnr.Build(g, h)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Locate the raw access-node offsets and ids inside the encoded section.
	arrays := func(data []byte) (accOff, accID []byte) {
		sr := snapio.NewSource(data, false)
		sr.U16()
		sr.U32()
		sr.AlignedRaw(4, 4) // transitID
		sr.AlignedRaw(8, 8) // table
		_, accOff, _ = sr.AlignedRaw(4, 4)
		_, accID, _ = sr.AlignedRaw(4, 4)
		return accOff, accID
	}
	_, pristineID := arrays(buf.Bytes())
	numAcc := uint32(len(pristineID) / 4)
	n := g.NumVertices()
	for _, alias := range []bool{false, true} {
		if _, err := tnr.Read(snapio.NewSource(buf.Bytes(), alias), n); err != nil {
			t.Fatalf("alias=%v: pristine section: %v", alias, err)
		}
		// A section of another network's size would be sliced by vertices
		// it does not have.
		if _, err := tnr.Read(snapio.NewSource(buf.Bytes(), alias), n+1); err == nil {
			t.Errorf("alias=%v: Read accepted a section for %d vertices as one for %d", alias, n, n+1)
		}
	}
	for name, tamper := range map[string]func(accOff, accID []byte){
		"accOff[1] past accID": func(accOff, _ []byte) { binary.LittleEndian.PutUint32(accOff[4:], numAcc+1) },
		"access node == |T|": func(_, accID []byte) {
			binary.LittleEndian.PutUint32(accID, uint32(x.NumTransit()))
		},
		"negative access node": func(_, accID []byte) { binary.LittleEndian.PutUint32(accID, 0xFFFFFFFF) },
	} {
		for _, alias := range []bool{false, true} {
			data := bytes.Clone(buf.Bytes())
			tamper(arrays(data))
			if _, err := tnr.Read(snapio.NewSource(data, alias), n); err == nil {
				t.Errorf("%s, alias=%v: Read accepted the section", name, alias)
			}
		}
	}
}
