package gen_test

import (
	"bytes"
	"compress/gzip"
	"os"
	"strings"
	"testing"

	"rnknn/internal/gen"
)

// tinyPair returns the tiny DIMACS pair in testdata: a 5-vertex path plus a
// chord, arcs in both directions as real DIMACS files have, with comment
// lines interleaved. The cmd/gendata and cmd/buildindex import tests read
// the same two files.
func tinyPair(t *testing.T) (gr, co string) {
	t.Helper()
	grB, err := os.ReadFile("testdata/tiny.gr")
	if err != nil {
		t.Fatal(err)
	}
	coB, err := os.ReadFile("testdata/tiny.co")
	if err != nil {
		t.Fatal(err)
	}
	return string(grB), string(coB)
}

func TestReadDIMACS(t *testing.T) {
	testGr, testCo := tinyPair(t)
	g, err := gen.ReadDIMACS(strings.NewReader(testGr), strings.NewReader(testCo), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "tiny" {
		t.Fatalf("name %q", g.Name)
	}
	if g.NumVertices() != 5 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	if g.NumEdges()/2 != 6 {
		t.Fatalf("|E| = %d, want 6 undirected", g.NumEdges()/2)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The coordinate scaling must preserve relative geometry: vertex 3 sits
	// above the line through the others.
	if !(g.Y[2] > g.Y[0] && g.Y[2] > g.Y[4]) {
		t.Fatalf("geometry distorted: Y = %v", g.Y)
	}
	// Every edge keeps Euclid <= weight (the Validate invariant) with a
	// positive max speed for the shard lower bounds.
	if s := g.MaxSpeed(); s <= 0 {
		t.Fatalf("MaxSpeed = %v", s)
	}
}

func TestReadDIMACSGzip(t *testing.T) {
	gz := func(s string) *bytes.Reader {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write([]byte(s))
		zw.Close()
		return bytes.NewReader(buf.Bytes())
	}
	testGr, testCo := tinyPair(t)
	g, err := gen.ReadDIMACS(gz(testGr), gz(testCo), "tinygz")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 || g.NumEdges()/2 != 6 {
		t.Fatalf("|V|=%d |E|=%d", g.NumVertices(), g.NumEdges()/2)
	}
}

// TestReadDIMACSDisconnected: an extract with an unreachable island keeps
// only the largest component, renumbered densely.
func TestReadDIMACSDisconnected(t *testing.T) {
	gr := `p sp 6 6
a 1 2 10
a 2 1 10
a 2 3 10
a 3 2 10
a 5 6 10
a 6 5 10
`
	co := `p aux sp co 6
v 1 0 0
v 2 10 0
v 3 20 0
v 4 500 500
v 5 30 0
v 6 40 0
`
	g, err := gen.ReadDIMACS(strings.NewReader(gr), strings.NewReader(co), "disc")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges()/2 != 2 {
		t.Fatalf("largest component |V|=%d |E|=%d, want 3/2", g.NumVertices(), g.NumEdges()/2)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadDIMACSErrors(t *testing.T) {
	testGr, testCo := tinyPair(t)
	cases := []struct{ gr, co string }{
		{"a 1 2 3\n", testCo},                    // arc before problem line
		{"p sp 5 1\na 1 9 3\n", testCo},          // vertex out of range
		{"p sp 4 0\n", testCo},                   // vertex count mismatch
		{testGr, "v 1 0 0\n"},                    // coords before problem line
		{"p sp 5 0\n", testCo},                   // no arcs
		{"p xx 5 1\na 1 2 3\n", testCo},          // wrong problem type
		{"p sp 5 1\na 1 2 notanumber\n", testCo}, // bad weight
		// A declared count the file does not back: no 32 GB allocation.
		{testGr, "p aux sp co 4000000000\nv 1 0 0\n"},
		{testGr, strings.Replace(testCo, "v 1 0 0", "v 1 NaN 0", 1)},          // NaN coordinate
		{testGr, strings.Replace(testCo, "v 3 2000 500", "v 3 2000 -Inf", 1)}, // infinite coordinate
		{testGr, testCo + "p aux sp co 2\n"},                                  // second problem line
	}
	for i, tc := range cases {
		if _, err := gen.ReadDIMACS(strings.NewReader(tc.gr), strings.NewReader(tc.co), "bad"); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// FuzzReadDIMACS: whatever the two files hold, the reader returns a graph
// or an error; it never panics.
func FuzzReadDIMACS(f *testing.F) {
	gr, err := os.ReadFile("testdata/tiny.gr")
	if err != nil {
		f.Fatal(err)
	}
	co, err := os.ReadFile("testdata/tiny.co")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gr, co)
	f.Fuzz(func(t *testing.T, gr, co []byte) {
		g, err := gen.ReadDIMACS(bytes.NewReader(gr), bytes.NewReader(co), "fuzz")
		if err == nil {
			if err := g.Validate(); err != nil {
				t.Fatalf("accepted an invalid graph: %v", err)
			}
		}
	})
}
