package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/snapshot"
)

// TestImportDIMACSWritesGraphSnapshot: the tiny DIMACS pair imports to a
// graph-only snapshot whose Graph section, read on the verified path, is
// gen.ReadDIMACS's graph array for array, under the same fingerprint.
func TestImportDIMACSWritesGraphSnapshot(t *testing.T) {
	gr, co := "../../internal/gen/testdata/tiny.gr", "../../internal/gen/testdata/tiny.co"
	out := filepath.Join(t.TempDir(), "tiny.rnks")
	if _, err := importDIMACS(gr, co, out, ""); err != nil {
		t.Fatal(err)
	}

	grF, err := os.Open(gr)
	if err != nil {
		t.Fatal(err)
	}
	defer grF.Close()
	coF, err := os.Open(co)
	if err != nil {
		t.Fatal(err)
	}
	defer coF.Close()
	want, err := gen.ReadDIMACS(grF, coF, "tiny")
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got, fp, err := core.LoadGraphData(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("imported graph differs:\ngot  %+v\nwant %+v", got, want)
	}
	if wantFP := snapshot.Fingerprint(want); fp != wantFP || snapshot.Fingerprint(got) != wantFP {
		t.Fatalf("fingerprint: container %x, decoded %x, want %x", fp, snapshot.Fingerprint(got), wantFP)
	}
	_, payloads, err := snapshot.Parse(data, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 || payloads[0].Name != core.SecGraph {
		t.Fatalf("want a graph-only snapshot, got %d sections", len(payloads))
	}
}
