package rnknn_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rnknn/internal/gen"
	"rnknn/pkg/rnknn"
)

// TestWithIndexCacheSkipsRebuild is the acceptance check for the transparent
// cache: the second Open of the same graph must load every index (asserted
// via Stats) and still answer queries identically.
func TestWithIndexCacheSkipsRebuild(t *testing.T) {
	dir := t.TempDir()
	g := gen.Network(gen.NetworkSpec{Name: "cache", Rows: 9, Cols: 9, Seed: 8})
	objs := gen.Uniform(g, 0.05, 3)
	open := func() *rnknn.DB {
		db, err := rnknn.Open(g,
			rnknn.WithMethods(rnknn.Gtree, rnknn.IERPHL, rnknn.ROAD),
			rnknn.WithObjects(rnknn.DefaultCategory, objs),
			rnknn.WithIndexCache(dir))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}

	first := open()
	for name, ix := range first.Stats().Indexes {
		if ix.Loaded {
			t.Fatalf("cold open: index %s marked loaded", name)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir: %v entries, err %v", len(entries), err)
	}

	second := open()
	stats := second.Stats()
	for _, name := range []string{"Gtree", "CH", "PHL", "ROAD"} {
		ix, ok := stats.Indexes[name]
		if !ok {
			t.Fatalf("warm open: index %s missing", name)
		}
		if !ix.Loaded {
			t.Fatalf("warm open: index %s was rebuilt", name)
		}
	}

	ctx := context.Background()
	q := int32(g.NumVertices() / 3)
	want, err := first.KNN(ctx, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := second.KNN(ctx, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rnknn.SameResults(got, want) {
		t.Fatalf("cache answers differ: %s vs %s", rnknn.FormatResults(got), rnknn.FormatResults(want))
	}
}

// TestWithIndexCacheGrowsSuperset asserts a warm open that enables an extra
// method loads what it can, builds the rest, and refreshes the cache file to
// the superset.
func TestWithIndexCacheGrowsSuperset(t *testing.T) {
	dir := t.TempDir()
	g := gen.Network(gen.NetworkSpec{Name: "cache2", Rows: 8, Cols: 8, Seed: 9})
	if _, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree), rnknn.WithIndexCache(dir)); err != nil {
		t.Fatal(err)
	}
	db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree, rnknn.ROAD), rnknn.WithIndexCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	stats := db.Stats()
	if !stats.Indexes["Gtree"].Loaded {
		t.Fatal("Gtree should load from the first run's cache")
	}
	if stats.Indexes["ROAD"].Loaded {
		t.Fatal("ROAD cannot be loaded on its first appearance")
	}
	db3, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree, rnknn.ROAD), rnknn.WithIndexCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Gtree", "ROAD"} {
		if !db3.Stats().Indexes[name].Loaded {
			t.Fatalf("third open: %s not loaded from refreshed cache", name)
		}
	}
}

// TestWithIndexCacheIgnoresCorruptFile asserts a damaged cache file falls
// back to building (and gets repaired) rather than failing Open.
func TestWithIndexCacheIgnoresCorruptFile(t *testing.T) {
	dir := t.TempDir()
	g := gen.Network(gen.NetworkSpec{Name: "cache3", Rows: 8, Cols: 8, Seed: 10})
	if _, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree), rnknn.WithIndexCache(dir)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir: %v, %v", entries, err)
	}
	path := filepath.Join(dir, entries[0].Name())
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree), rnknn.WithIndexCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().Indexes["Gtree"].Loaded {
		t.Fatal("corrupt cache cannot yield a loaded index")
	}
	// The rebuild must have repaired the file.
	db2, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree), rnknn.WithIndexCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !db2.Stats().Indexes["Gtree"].Loaded {
		t.Fatal("repaired cache not loaded")
	}
}

// TestOpenFromSnapshotTypedErrors covers the public error contract:
// truncated bytes and mismatched graphs surface the sentinels.
func TestOpenFromSnapshotTypedErrors(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "errs", Rows: 8, Cols: 8, Seed: 11})
	db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}

	_, err = rnknn.OpenFromSnapshot(g, bytes.NewReader(buf.Bytes()[:buf.Len()/2]), rnknn.WithMethods(rnknn.Gtree))
	if !errors.Is(err, rnknn.ErrBadSnapshot) {
		t.Fatalf("truncated: want ErrBadSnapshot, got %v", err)
	}

	other := gen.Network(gen.NetworkSpec{Name: "errs", Rows: 8, Cols: 8, Seed: 12})
	_, err = rnknn.OpenFromSnapshot(other, bytes.NewReader(buf.Bytes()), rnknn.WithMethods(rnknn.Gtree))
	if !errors.Is(err, rnknn.ErrFingerprintMismatch) {
		t.Fatalf("mismatch: want ErrFingerprintMismatch, got %v", err)
	}
}

// TestSaveIndexesFileAtomic sanity-checks the file helper end to end.
func TestSaveIndexesFileAtomic(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "atomic", Rows: 8, Cols: 8, Seed: 14})
	db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.rnks")
	if err := db.SaveIndexesFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db2, err := rnknn.OpenFromSnapshot(g, f, rnknn.WithMethods(rnknn.Gtree))
	if err != nil {
		t.Fatal(err)
	}
	if !db2.Stats().Indexes["Gtree"].Loaded {
		t.Fatal("file snapshot not loaded")
	}
	if leftovers, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp*")); len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}
