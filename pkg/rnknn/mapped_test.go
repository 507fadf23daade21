package rnknn_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/partition"
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

// tamperArrays returns a copy of a snapshot with fn applied to the raw
// 64-byte-aligned int32 arrays of the named section, read after the
// section's scalar header.
func tamperArrays(t *testing.T, orig []byte, section string, header func(*snapio.Source), fn func(arrays [][]byte)) []byte {
	t.Helper()
	data := bytes.Clone(orig)
	_, payloads, err := snapshot.Parse(data, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if p.Name != section {
			continue
		}
		sr := snapio.NewSource(p.Data, false)
		header(sr)
		var arrays [][]byte
		for sr.Remaining() > 0 && sr.Err() == nil {
			_, b, _ := sr.AlignedRaw(4, 4)
			arrays = append(arrays, b)
		}
		fn(arrays)
		if bytes.Equal(data, orig) {
			t.Fatalf("tampering left the %s section unchanged", section)
		}
		return data
	}
	t.Fatalf("no %s section in the snapshot", section)
	return nil
}

// lastIntoFirst sets an offset array's entry 1 to its last entry, so the
// offsets are no longer monotone: the slice for vertex 1 would start past
// its end.
func lastIntoFirst(off []byte) {
	copy(off[4:8], off[len(off)-4:])
}

// TestOpenSnapshotFileHostilePHLLabels: a mapped open skips the per-element
// label validation the decode path does, and IER-PHL's pinned scan
// subscripts an array by hub VALUE. A snapshot whose PHL hubs and dist
// arrays were overwritten may answer wrongly or error; it must not panic.
// Offsets that are not monotone would slice a label past its end, so the
// mapped open checks them and refuses the file.
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
	version := func(sr *snapio.Source) { sr.U16() }
	fill := func(b []byte, v byte) {
		for i := range b {
			b[i] = v
		}
	}
	for name, c := range map[string]struct {
		tamper func(off, hubs, dist []byte)
		refuse bool
	}{
		"hubs -1, dist -1":          {tamper: func(_, h, d []byte) { fill(h, 0xFF); fill(d, 0xFF) }},
		"hubs huge, dist very low":  {tamper: func(_, h, d []byte) { fill(h, 0x7F); fill(d, 0x80) }},
		"hubs very low, dist huge":  {tamper: func(_, h, d []byte) { fill(h, 0x80); fill(d, 0x7F) }},
		"hubs all zero, dist huge":  {tamper: func(_, h, d []byte) { fill(h, 0x00); fill(d, 0x7F) }},
		"hubs -1, dist all zero":    {tamper: func(_, h, d []byte) { fill(h, 0xFF); fill(d, 0x00) }},
		"hubs huge, dist untouched": {tamper: func(_, h, _ []byte) { fill(h, 0x7F) }},
		"off[1] = off[n]":           {tamper: func(off, _, _ []byte) { lastIntoFirst(off) }, refuse: true},
	} {
		data := tamperArrays(t, orig, "PHL", version, func(a [][]byte) { c.tamper(a[0], a[1], a[2]) })
		path := filepath.Join(dir, "hostile.rnks")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := rnknn.OpenSnapshotFile(path, opts...)
		if err != nil {
			continue // refusing the file is an acceptable outcome
		}
		if c.refuse {
			t.Errorf("%s: mapped open accepted the file", name)
		}
		for q := int32(0); q < int32(g.NumVertices()); q++ {
			_, _ = db.KNN(context.Background(), q, 5, rnknn.WithMethod(rnknn.IERPHL))
		}
		if err := db.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
}

// TestOpenSnapshotFileHostileCHHierarchy: PHL's build reads the hierarchy's
// upward arcs through its offsets and orders vertices by rank, and it runs
// over a mapped CH when a snapshot carries CH but not PHL; IER-CH's searches
// subscript by arc target. A mapped open therefore checks all three and
// refuses offsets that are not monotone and ranks or targets outside
// [0, |V|).
func TestOpenSnapshotFileHostileCHHierarchy(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "hostile", Rows: 10, Cols: 12, Seed: 8})
	objs := gen.Uniform(g, 0.1, 3)
	built, err := rnknn.Open(g, rnknn.WithMethods(rnknn.IERCH), rnknn.WithObjects(rnknn.DefaultCategory, objs))
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
	header := func(sr *snapio.Source) { sr.U16(); sr.U32() } // version, shortcut count
	for name, tamper := range map[string]func(rank, upOff, upTo []byte){
		"upOff[1] = upOff[n]": func(_, upOff, _ []byte) { lastIntoFirst(upOff) },
		"rank[0] = |V|":       func(rank, _, _ []byte) { binary.LittleEndian.PutUint32(rank, uint32(g.NumVertices())) },
		"rank[0] = -1":        func(rank, _, _ []byte) { binary.LittleEndian.PutUint32(rank, 0xFFFFFFFF) },
		"upTo[0] = |V|":       func(_, _, upTo []byte) { binary.LittleEndian.PutUint32(upTo, uint32(g.NumVertices())) },
	} {
		data := tamperArrays(t, orig, "CH", header, func(a [][]byte) { tamper(a[0], a[1], a[2]) })
		path := filepath.Join(dir, "hostile.rnks")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := rnknn.OpenSnapshotFile(path, rnknn.WithMethods(rnknn.IERCH, rnknn.IERPHL),
			rnknn.WithObjects(rnknn.DefaultCategory, objs))
		if err == nil {
			db.Close()
			t.Errorf("%s: mapped open accepted the file", name)
		}
	}
}

// TestOpenSnapshotFileHostileGtreeArrays: G-tree's queries subscript with
// the elements of its position, border, layout and leaf-graph arrays. A
// snapshot whose element is out of range, re-framed so its checksum holds,
// must be refused with ErrBadSnapshot on the verified and the mapped path
// alike: accepted, the first row makes a leaf scan index out of range.
func TestOpenSnapshotFileHostileGtreeArrays(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "hostile", Rows: 10, Cols: 12, Seed: 8})
	objs := gen.Uniform(g, 0.1, 3)
	opts := []rnknn.Option{rnknn.WithMethods(rnknn.Gtree), rnknn.WithObjects(rnknn.DefaultCategory, objs)}
	built, err := rnknn.Open(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	// Version, tau and the partition tree precede the arrays: posInLeaf,
	// then offset/data pairs for borders, childBorders, childOff, ownIdx,
	// leafOff, leafTgt and leafW.
	header := func(sr *snapio.Source) { sr.U16(); sr.U32(); partition.Decode(sr, g.NumVertices()) }
	put := func(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
	dir := t.TempDir()
	for name, tamper := range map[string]func(a [][]byte){
		"posInLeaf[0] = 15269639": func(a [][]byte) { put(a[0], 15269639) },
		"leafTgt[0] = 1<<30":      func(a [][]byte) { put(a[12], 1<<30) },
		"ownIdx[0] = -1":          func(a [][]byte) { put(a[8], 0xFFFFFFFF) },
		"childOff[1] = 1<<20":     func(a [][]byte) { put(a[6][4:], 1<<20) },
		"borders[0] = |V|":        func(a [][]byte) { put(a[2], uint32(g.NumVertices())) },
	} {
		data := reframe(t, tamperArrays(t, buf.Bytes(), "Gtree", header, tamper))
		if _, err := rnknn.OpenFromSnapshot(g, bytes.NewReader(data), opts...); !errors.Is(err, rnknn.ErrBadSnapshot) {
			t.Errorf("%s: verified open: want ErrBadSnapshot, got %v", name, err)
		}
		path := filepath.Join(dir, "hostile.rnks")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := rnknn.OpenSnapshotFile(path, opts...)
		if err == nil {
			db.Close()
		}
		if !errors.Is(err, rnknn.ErrBadSnapshot) {
			t.Errorf("%s: mapped open: want ErrBadSnapshot, got %v", name, err)
		}
	}
}

// TestOpenSnapshotFileHostileROADLevels: a ROAD query keeps one ancestor
// per tree level. A snapshot whose levels field is below the decoded tree's
// depth, re-framed so its checksum holds, must be refused with
// ErrBadSnapshot on the verified and the mapped path alike; one far above
// it must load and answer without sizing anything by it.
func TestOpenSnapshotFileHostileROADLevels(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "hostile", Rows: 20, Cols: 20, Seed: 8})
	objs := gen.Uniform(g, 0.1, 3)
	opts := []rnknn.Option{rnknn.WithMethods(rnknn.ROAD), rnknn.WithObjects(rnknn.DefaultCategory, objs)}
	built, err := rnknn.Open(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range []struct {
		levels uint32
		refuse bool
	}{{0, true}, {1 << 30, false}} {
		data := bytes.Clone(buf.Bytes())
		_, payloads, err := snapshot.Parse(data, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			if p.Name == "ROAD" {
				binary.LittleEndian.PutUint32(p.Data[2:], c.levels) // after the version
			}
		}
		data = reframe(t, data)
		path := filepath.Join(dir, "hostile.rnks")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := map[string]func() (*rnknn.DB, error){
			"verified": func() (*rnknn.DB, error) { return rnknn.OpenFromSnapshot(g, bytes.NewReader(data), opts...) },
			"mapped":   func() (*rnknn.DB, error) { return rnknn.OpenSnapshotFile(path, opts...) },
		}
		for how, open := range open {
			db, err := open()
			if c.refuse {
				if err == nil {
					db.Close()
				}
				if !errors.Is(err, rnknn.ErrBadSnapshot) {
					t.Errorf("levels %d, %s open: want ErrBadSnapshot, got %v", c.levels, how, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("levels %d, %s open: %v", c.levels, how, err)
			}
			for q := int32(0); q < int32(g.NumVertices()); q += 7 {
				if _, err := db.KNN(context.Background(), q, 5, rnknn.WithMethod(rnknn.ROAD)); err != nil {
					t.Fatalf("levels %d, %s open: KNN(%d): %v", c.levels, how, q, err)
				}
			}
			db.Close()
		}
	}
}

// TestOpenSnapshotFileHostilePartitionRanges: G-tree and ROAD answer "is v
// inside this node" from the partition tree's leaf-sequence ranges (LeafLo,
// LeafHi per node, LeafSeq per vertex), and subscript per-vertex state by
// the vertices a node lists. A snapshot whose ranges do not nest as the
// built tree's do, or whose node lists a vertex outside [0, |V|), re-framed
// so its checksum holds, must be refused with ErrBadSnapshot on the
// verified and the mapped path alike, whichever index's tree carries them:
// accepted, Contains(root, q) can be false and G-tree's border walk reads
// the node before the root, and G-tree's leaf search and ROAD's object
// removal index object bits by the bad vertex.
func TestOpenSnapshotFileHostilePartitionRanges(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "hostile", Rows: 20, Cols: 20, Seed: 8})
	objs := gen.Uniform(g, 0.1, 3)
	opts := []rnknn.Option{rnknn.WithMethods(rnknn.Gtree, rnknn.ROAD), rnknn.WithObjects(rnknn.DefaultCategory, objs)}
	built, err := rnknn.Open(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	// tree is a decoded copy of a section's tree; lo and hi are the
	// payload's LeafLo and LeafHi words per node, verts its vertex arrays,
	// seq its LeafSeq array.
	type fields struct {
		tree          *partition.Tree
		lo, hi, verts [][]byte
		seq           []byte
	}
	header := func(sr *snapio.Source) { sr.U16(); sr.U32() } // version, then tau or levels
	locate := func(payload []byte) fields {
		sr := snapio.NewSource(payload, false)
		header(sr)
		var f fields
		f.tree = partition.Decode(sr, g.NumVertices())
		sr = snapio.NewSource(payload, false)
		header(sr)
		sr.U32() // fanout
		count := int(sr.U32())
		for range count {
			sr.U32()
			sr.U32()
			at := len(payload) - sr.Remaining()
			f.lo, f.hi = append(f.lo, payload[at:at+4]), append(f.hi, payload[at+4:at+8])
			sr.U32()
			sr.U32()
			sr.AlignedRaw(4, 4) // children
			_, verts, _ := sr.AlignedRaw(4, 4)
			f.verts = append(f.verts, verts)
		}
		sr.AlignedRaw(4, 4) // leafOf
		_, f.seq, _ = sr.AlignedRaw(4, 4)
		if sr.Err() != nil || f.tree == nil {
			t.Fatalf("locating the partition tree: %v", sr.Err())
		}
		return f
	}
	add := func(b []byte, d int32) {
		binary.LittleEndian.PutUint32(b, uint32(int32(binary.LittleEndian.Uint32(b))+d))
	}
	q := int32(g.NumVertices() / 2)
	dir := t.TempDir()
	for _, section := range []string{"Gtree", "ROAD"} {
		for name, tamper := range map[string]func(f fields){
			"a leaf covers two slots": func(f fields) { add(f.hi[f.tree.LeafOf[q]], 1) },
			"the root misses a slot":  func(f fields) { add(f.hi[0], -1) },
			"children out of order": func(f fields) {
				c := f.tree.Nodes[0].Children
				for _, w := range [][]byte{f.lo[c[0]], f.hi[c[0]]} {
					add(w, f.tree.Nodes[c[1]].LeafLo)
				}
			},
			"leafSeq[q] past every leaf":  func(f fields) { add(f.seq[4*q:], 1<<20) },
			"leafSeq[q] in another leaf":  func(f fields) { add(f.seq[4*q:], 1) },
			"q's leaf lists vertex 1<<28": func(f fields) { add(f.verts[f.tree.LeafOf[q]], 1<<28) },
		} {
			data := bytes.Clone(buf.Bytes())
			_, payloads, err := snapshot.Parse(data, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range payloads {
				if p.Name == section {
					tamper(locate(p.Data))
				}
			}
			data = reframe(t, data)
			if bytes.Equal(data, reframe(t, buf.Bytes())) {
				t.Fatalf("%s, %s: tampering left the snapshot unchanged", section, name)
			}
			path := filepath.Join(dir, "hostile.rnks")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			open := map[string]func() (*rnknn.DB, error){
				"verified": func() (*rnknn.DB, error) { return rnknn.OpenFromSnapshot(g, bytes.NewReader(data), opts...) },
				"mapped":   func() (*rnknn.DB, error) { return rnknn.OpenSnapshotFile(path, opts...) },
			}
			for how, open := range open {
				db, err := open()
				if err == nil {
					for _, m := range []rnknn.Method{rnknn.Gtree, rnknn.ROAD} {
						db.KNN(context.Background(), q, 5, rnknn.WithMethod(m))
					}
					// Removing q scans its leaf's vertex list for objects.
					db.InsertObjects(rnknn.DefaultCategory, []int32{q})
					db.RemoveObjects(rnknn.DefaultCategory, []int32{q})
					db.Close()
				}
				if !errors.Is(err, rnknn.ErrBadSnapshot) {
					t.Errorf("%s, %s: %s open: want ErrBadSnapshot, got %v", section, name, how, err)
				}
			}
		}
	}
}

// TestOpenSnapshotRetiredSILCSection: SILC, Distance Browsing's index, is
// a retired section. A snapshot that carries one, at the place older
// builds wrote it (after ROAD), is refused with ErrBadSnapshot naming the
// section, on the verified and the mapped path alike, instead of opening
// without it. The same file without the section opens.
func TestOpenSnapshotRetiredSILCSection(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "retired", Rows: 8, Cols: 8, Seed: 8})
	opts := []rnknn.Option{rnknn.WithMethods(rnknn.Gtree, rnknn.ROAD, rnknn.IERPHL),
		rnknn.WithObjects(rnknn.DefaultCategory, gen.Uniform(g, 0.1, 3))}
	built, err := rnknn.Open(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	fp, payloads, err := snapshot.Parse(buf.Bytes(), true)
	if err != nil {
		t.Fatal(err)
	}
	// The section's bytes are never decoded; a layout-version-2 prefix
	// stands in for the payload older builds wrote.
	silc := []byte{2, 0, 1, 0, 0, 0, 0, 0}
	write := func(withSILC bool) []byte {
		var secs []snapshot.Section
		add := func(name string, mappable bool, data []byte) {
			secs = append(secs, snapshot.Section{Name: name, Mappable: mappable, Encode: func(w io.Writer) error {
				_, err := w.Write(data)
				return err
			}})
		}
		for _, p := range payloads {
			add(p.Name, p.Mappable, p.Data)
			if p.Name == "ROAD" && withSILC {
				add("SILC", true, silc)
			}
		}
		var out bytes.Buffer
		if err := snapshot.Write(&out, fp, secs); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	dir := t.TempDir()
	for _, withSILC := range []bool{true, false} {
		data := write(withSILC)
		path := filepath.Join(dir, fmt.Sprintf("retired-%v.rnks", withSILC))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for how, open := range map[string]func() (*rnknn.DB, error){
			"verified": func() (*rnknn.DB, error) { return rnknn.OpenFromSnapshot(g, bytes.NewReader(data), opts...) },
			"mapped":   func() (*rnknn.DB, error) { return rnknn.OpenSnapshotFile(path, opts...) },
		} {
			db, err := open()
			if !withSILC {
				if err != nil {
					t.Errorf("%s open without the SILC section: %v", how, err)
				} else {
					db.Close()
				}
				continue
			}
			if err == nil {
				db.Close()
			}
			if !errors.Is(err, rnknn.ErrBadSnapshot) || !strings.Contains(err.Error(), "SILC") {
				t.Errorf("%s open with a SILC section: want ErrBadSnapshot naming SILC, got %v", how, err)
			}
		}
	}
}

// TestOpenSnapshotFileHostileGraphArrays: every search slices the edge
// arrays by vertex offset and subscripts per-vertex state by edge target.
// A Graph section with one offset past |E| or one target outside [0, |V|)
// must be refused with ErrBadSnapshot by the mapped open too: accepted,
// the bad offset makes INE's first query slice past the edge arrays.
func TestOpenSnapshotFileHostileGraphArrays(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "hostile", Rows: 6, Cols: 6, Seed: 8})
	objs := gen.Uniform(g, 0.1, 3)
	opts := []rnknn.Option{rnknn.WithMethods(rnknn.INE), rnknn.WithObjects(rnknn.DefaultCategory, objs)}
	built, err := rnknn.Open(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	// Version, name, weight kind and the vertex and edge counts precede the
	// offsets and targets; the int32 reads past them are not used.
	header := func(sr *snapio.Source) { sr.U16(); _ = sr.String(); sr.U8(); sr.U32(); sr.U32() }
	put := func(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
	dir := t.TempDir()
	for name, tamper := range map[string]func(a [][]byte){
		"offsets[1] = |E|+1000": func(a [][]byte) { put(a[0][4:], uint32(g.NumEdges()+1000)) },
		"targets[0] = |V|":      func(a [][]byte) { put(a[1], uint32(g.NumVertices())) },
	} {
		data := reframe(t, tamperArrays(t, buf.Bytes(), "Graph", header, tamper))
		path := filepath.Join(dir, "hostile.rnks")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := rnknn.OpenSnapshotFile(path, opts...)
		if err == nil {
			db.Close()
		}
		if !errors.Is(err, rnknn.ErrBadSnapshot) {
			t.Errorf("%s: mapped open: want ErrBadSnapshot, got %v", name, err)
		}
	}
}

// reframe writes a snapshot's sections again under fresh checksums, so a
// tampered payload reaches its codec on the verified path too.
func reframe(t *testing.T, data []byte) []byte {
	t.Helper()
	fp, payloads, err := snapshot.Parse(data, false)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]snapshot.Section, len(payloads))
	for i, p := range payloads {
		secs[i] = snapshot.Section{Name: p.Name, Mappable: p.Mappable, Encode: func(w io.Writer) error {
			_, err := w.Write(p.Data)
			return err
		}}
	}
	var out bytes.Buffer
	if err := snapshot.Write(&out, fp, secs); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
