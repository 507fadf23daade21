package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/snapshot"
)

// tinyGraph reads the tiny DIMACS pair of internal/gen's tests.
func tinyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	gr, err := os.Open("../../internal/gen/testdata/tiny.gr")
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Close()
	co, err := os.Open("../../internal/gen/testdata/tiny.co")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	g, err := gen.ReadDIMACS(gr, co, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// graphOnly encodes g as the graph-only snapshot gendata -dimacs-gr writes.
func graphOnly(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.New(g).SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.rnks")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadGraphRoundTrip: an imported network loads back array for array,
// with the fingerprint it was written under.
func TestLoadGraphRoundTrip(t *testing.T) {
	want := tinyGraph(t)
	got, err := loadGraph(writeFile(t, graphOnly(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded graph differs:\ngot  %+v\nwant %+v", got, want)
	}
	if snapshot.Fingerprint(got) != snapshot.Fingerprint(want) {
		t.Fatal("fingerprint changed across the round trip")
	}
}

// TestLoadGraphRejectsCorruption: bad magic, a truncated file and a flipped
// payload byte are each ErrBadSnapshot.
func TestLoadGraphRejectsCorruption(t *testing.T) {
	good := graphOnly(t, tinyGraph(t))
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0x01 // the last coordinate's low byte
	for name, data := range map[string][]byte{
		"bad magic": append([]byte("RNKN"), good[4:]...),
		"truncated": good[:len(good)/2],
		"empty":     {},
		"flipped":   flipped,
	} {
		if _, err := loadGraph(writeFile(t, data)); !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Errorf("%s: want ErrBadSnapshot, got %v", name, err)
		}
	}
}

// TestLoadGraphValidates: a zeroed weight framed by snapshot.Write has a
// valid checksum and passes the structural scan; Validate must refuse it.
func TestLoadGraphValidates(t *testing.T) {
	bad := *tinyGraph(t)
	bad.DistW = append([]int32(nil), bad.DistW...)
	bad.DistW[0] = 0
	bad.W = bad.DistW
	data := graphOnly(t, &bad)
	if _, _, err := snapshot.Parse(data, true); err != nil {
		t.Fatalf("the container itself must be valid: %v", err)
	}
	_, err := loadGraph(writeFile(t, data))
	if err == nil || errors.Is(err, snapshot.ErrBadSnapshot) || !strings.Contains(err.Error(), "non-positive weight") {
		t.Fatalf("want Validate's non-positive weight error, got %v", err)
	}
}
