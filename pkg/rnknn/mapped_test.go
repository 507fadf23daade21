package rnknn_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/snapio"
	"rnknn/internal/snapshot"
	"rnknn/pkg/rnknn"
)

// TestOpenSnapshotFileIdenticalAnswers is the zero-copy acceptance test:
// a DB opened from a self-contained snapshot file — graph included, no
// other input — loads every index (nothing rebuilt) and answers every
// method identically to the DB that built them.
func TestOpenSnapshotFileIdenticalAnswers(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "mmapsnap", Rows: 10, Cols: 11, Seed: 6})
	objs := gen.Uniform(g, 0.04, 9)
	methods := rnknn.Methods()

	built, err := rnknn.Open(g,
		rnknn.WithMethods(methods...),
		rnknn.WithObjects(rnknn.DefaultCategory, objs))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.rnks")
	if err := built.SaveIndexesFile(path); err != nil {
		t.Fatal(err)
	}

	db, err := rnknn.OpenSnapshotFile(path,
		rnknn.WithMethods(methods...),
		rnknn.WithObjects(rnknn.DefaultCategory, objs))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for name, ix := range db.Stats().Indexes {
		if !ix.Loaded {
			t.Fatalf("index %s rebuilt instead of loaded", name)
		}
	}
	if db.Graph().NumVertices() != g.NumVertices() || db.Graph().NumEdges() != g.NumEdges() {
		t.Fatalf("snapshot graph %d/%d, want %d/%d",
			db.Graph().NumVertices(), db.Graph().NumEdges(), g.NumVertices(), g.NumEdges())
	}

	ctx := context.Background()
	for _, m := range methods {
		for _, q := range []int32{0, int32(g.NumVertices() / 2), int32(g.NumVertices() - 1)} {
			want, err := built.KNN(ctx, q, 6, rnknn.WithMethod(m))
			if err != nil {
				t.Fatalf("%v built: %v", m, err)
			}
			got, err := db.KNN(ctx, q, 6, rnknn.WithMethod(m))
			if err != nil {
				t.Fatalf("%v mapped: %v", m, err)
			}
			if !rnknn.SameResults(got, want) {
				t.Fatalf("%v q=%d: got %v want %v", m, q, got, want)
			}
		}
	}
}

// TestOpenSnapshotFileNoGraphSection: a container without a Graph section
// (an index-only snapshot hand-built the old way) cannot self-open; the
// error says why.
func TestOpenSnapshotFileNoGraphSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nograph.rnks")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = snapshot.Write(f, 1234, []snapshot.Section{{
		Name: "NotGraph",
		Encode: func(w io.Writer) error {
			_, err := w.Write([]byte("no graph here"))
			return err
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = rnknn.OpenSnapshotFile(path)
	if err == nil || !strings.Contains(err.Error(), "Graph section") {
		t.Fatalf("want a no-Graph-section error, got %v", err)
	}
}

// TestWithMmapIndexCache: the transparent cache with WithMmap loads the
// second open zero-copy — every index Loaded, answers identical, and a
// Close that releases the mapping.
func TestWithMmapIndexCache(t *testing.T) {
	dir := t.TempDir()
	g := gen.Network(gen.NetworkSpec{Name: "mmapcache", Rows: 9, Cols: 10, Seed: 4})
	objs := gen.Uniform(g, 0.05, 7)
	open := func() *rnknn.DB {
		db, err := rnknn.Open(g,
			rnknn.WithMethods(rnknn.Gtree, rnknn.IERPHL),
			rnknn.WithObjects(rnknn.DefaultCategory, objs),
			rnknn.WithIndexCache(dir),
			rnknn.WithMmap())
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	first := open()
	want, err := first.KNN(context.Background(), 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second := open()
	defer second.Close()
	for name, ix := range second.Stats().Indexes {
		if !ix.Loaded {
			t.Fatalf("index %s rebuilt on the cached open", name)
		}
	}
	got, err := second.KNN(context.Background(), 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rnknn.SameResults(got, want) {
		t.Fatalf("cached mmap open answers differently: got %v want %v", got, want)
	}
}

// TestOpenSnapshotFileRejectsGarbage: not-a-snapshot files surface
// ErrBadSnapshot, and missing files surface the underlying OS error.
func TestOpenSnapshotFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.rnks")
	if err := os.WriteFile(path, []byte(strings.Repeat("junk", 100)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rnknn.OpenSnapshotFile(path); !errors.Is(err, rnknn.ErrBadSnapshot) {
		t.Fatalf("want ErrBadSnapshot, got %v", err)
	}
	if _, err := rnknn.OpenSnapshotFile(filepath.Join(t.TempDir(), "absent.rnks")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestOpenSnapshotFileHostilePHLLabels: a mapped open skips the per-element
// label validation the decode path does, and IER-PHL's pinned scan
// subscripts an array by hub VALUE. A snapshot whose PHL hubs and dist
// arrays were overwritten may answer wrongly or error; it must not panic.
func TestOpenSnapshotFileHostilePHLLabels(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "hostile", Rows: 10, Cols: 12, Seed: 8})
	objs := gen.Uniform(g, 0.1, 3)
	opts := []rnknn.Option{rnknn.WithMethods(rnknn.IERPHL), rnknn.WithObjects(rnknn.DefaultCategory, objs)}
	built, err := rnknn.Open(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.rnks")
	if err := built.SaveIndexesFile(clean); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	for name, fill := range map[string]struct {
		hub, dist byte
		keepDist  bool
	}{
		"hubs -1, dist -1":          {hub: 0xFF, dist: 0xFF},
		"hubs huge, dist very low":  {hub: 0x7F, dist: 0x80},
		"hubs very low, dist huge":  {hub: 0x80, dist: 0x7F},
		"hubs all zero, dist huge":  {hub: 0x00, dist: 0x7F},
		"hubs -1, dist all zero":    {hub: 0xFF, dist: 0x00},
		"hubs huge, dist untouched": {hub: 0x7F, keepDist: true},
	} {
		data := bytes.Clone(orig)
		_, payloads, err := snapshot.Parse(data, false)
		if err != nil {
			t.Fatal(err)
		}
		tampered := false
		for _, p := range payloads {
			if p.Name != "PHL" {
				continue
			}
			sr := snapio.NewSource(p.Data, false)
			sr.U16()            // codec version
			sr.AlignedRaw(4, 4) // off: left intact
			_, hubs, _ := sr.AlignedRaw(4, 4)
			_, dist, _ := sr.AlignedRaw(4, 4)
			for i := range hubs {
				hubs[i] = fill.hub
			}
			if !fill.keepDist {
				for i := range dist {
					dist[i] = fill.dist
				}
			}
			tampered = len(hubs) > 0 && len(dist) > 0
		}
		if !tampered || bytes.Equal(data, orig) {
			t.Fatal("did not find the PHL label arrays in the snapshot")
		}
		path := filepath.Join(dir, "hostile.rnks")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := rnknn.OpenSnapshotFile(path, opts...)
		if err != nil {
			continue // refusing the file is an acceptable outcome
		}
		for q := int32(0); q < int32(g.NumVertices()); q += 7 {
			_, _ = db.KNN(context.Background(), q, 5, rnknn.WithMethod(rnknn.IERPHL))
		}
		if err := db.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
}
