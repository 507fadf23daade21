package core_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/snapshot"
)

// snapshotGraphs returns the three networks every round-trip property is
// checked on: two different topologies plus a travel-time view (whose
// indexes — and fingerprint — differ from the distance view of the same
// grid).
func snapshotGraphs() []*graph.Graph {
	a := gen.Network(gen.NetworkSpec{Name: "snapA", Rows: 10, Cols: 14, Seed: 31})
	b := gen.Network(gen.NetworkSpec{Name: "snapB", Rows: 14, Cols: 9, Seed: 77})
	c := gen.Network(gen.NetworkSpec{Name: "snapC", Rows: 12, Cols: 12, Seed: 5}).View(graph.TravelTime)
	return []*graph.Graph{a, b, c}
}

func buildAll(e *core.Engine) {
	for _, kind := range core.Kinds() {
		e.EnsureIndex(kind)
	}
}

// TestSnapshotRoundTripAllMethods is the round-trip property test: for every
// graph and every method kind, an engine warm-started from a snapshot must
// return results identical (vertex and distance) to the engine that built
// its indexes live.
func TestSnapshotRoundTripAllMethods(t *testing.T) {
	for _, g := range snapshotGraphs() {
		built := core.New(g)
		buildAll(built)

		var buf bytes.Buffer
		if err := built.SaveIndexes(&buf); err != nil {
			t.Fatalf("%s: save: %v", g.Name, err)
		}
		loaded := core.New(g)
		if err := loaded.LoadIndexesData(buf.Bytes(), false); err != nil {
			t.Fatalf("%s: load: %v", g.Name, err)
		}
		for name, info := range loaded.BuiltIndexes() {
			if !info.Loaded {
				t.Fatalf("%s: index %s not marked loaded", g.Name, name)
			}
		}
		if len(loaded.BuiltIndexes()) != len(built.BuiltIndexes()) {
			t.Fatalf("%s: loaded %d indexes, built %d", g.Name,
				len(loaded.BuiltIndexes()), len(built.BuiltIndexes()))
		}

		objs := knn.NewObjectSet(g, gen.Uniform(g, 0.03, 11))
		rng := rand.New(rand.NewSource(2))
		queries := make([]int32, 6)
		for i := range queries {
			queries[i] = int32(rng.Intn(g.NumVertices()))
		}
		for _, kind := range core.Kinds() {
			mBuilt, err := built.NewSession(kind, built.NewBinding(objs, []core.MethodKind{kind}))
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			mLoaded, err := loaded.NewSession(kind, loaded.NewBinding(objs, []core.MethodKind{kind}))
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			for _, q := range queries {
				for _, k := range []int{1, 5, 12} {
					want := mBuilt.KNN(q, k)
					got := mLoaded.KNN(q, k)
					if len(got) != len(want) {
						t.Fatalf("%s %v q=%d k=%d: %d vs %d results", g.Name, kind, q, k, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s %v q=%d k=%d: result %d differs: got %+v want %+v\nall got %s\nall want %s",
								g.Name, kind, q, k, i, got[i], want[i],
								knn.FormatResults(got), knn.FormatResults(want))
						}
					}
				}
			}
		}
	}
}

// TestSnapshotLoadDoesNotRebuild asserts a loaded index satisfies the lazy
// getters without reconstruction.
func TestSnapshotLoadDoesNotRebuild(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "snapD", Rows: 8, Cols: 8, Seed: 3})
	built := core.New(g)
	built.EnsureIndex(core.Gtree)
	built.EnsureIndex(core.IERPHL)
	var buf bytes.Buffer
	if err := built.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}

	loaded := core.New(g)
	if err := loaded.LoadIndexesData(buf.Bytes(), false); err != nil {
		t.Fatal(err)
	}
	gt := loaded.GtreeIndex()
	if loaded.GtreeIndex() != gt {
		t.Fatal("G-tree rebuilt after load")
	}
	info := loaded.BuiltIndexes()
	for _, name := range []string{"Gtree", "CH", "PHL"} {
		ix, ok := info[name]
		if !ok || !ix.Loaded {
			t.Fatalf("index %s missing or not loaded: %+v", name, info)
		}
	}
	// An index absent from the snapshot still lazy-builds.
	if loaded.ROADIndex() == nil {
		t.Fatal("ROAD did not build")
	}
	if loaded.BuiltIndexes()["ROAD"].Loaded {
		t.Fatal("freshly built ROAD marked loaded")
	}
}

// TestSnapshotGraphMismatchRejected asserts a snapshot saved over one graph
// refuses to load against another.
func TestSnapshotGraphMismatchRejected(t *testing.T) {
	g1 := gen.Network(gen.NetworkSpec{Name: "snapE", Rows: 8, Cols: 8, Seed: 4})
	g2 := gen.Network(gen.NetworkSpec{Name: "snapE", Rows: 8, Cols: 8, Seed: 5})
	e1 := core.New(g1)
	e1.EnsureIndex(core.Gtree)
	var buf bytes.Buffer
	if err := e1.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	e2 := core.New(g2)
	err := e2.LoadIndexesData(buf.Bytes(), false)
	if !errors.Is(err, snapshot.ErrFingerprintMismatch) {
		t.Fatalf("want ErrFingerprintMismatch, got %v", err)
	}
	// The weight view is part of the fingerprint too.
	e3 := core.New(g1.View(graph.TravelTime))
	if err := e3.LoadIndexesData(buf.Bytes(), false); !errors.Is(err, snapshot.ErrFingerprintMismatch) {
		t.Fatalf("want ErrFingerprintMismatch for weight view, got %v", err)
	}
}

// TestSnapshotCorruptionRejected flips or truncates bytes across the whole
// file and asserts the typed error (never a panic, never silent success).
func TestSnapshotCorruptionRejected(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "snapF", Rows: 8, Cols: 8, Seed: 6})
	e := core.New(g)
	e.EnsureIndex(core.Gtree)
	e.EnsureIndex(core.IERTNR)
	var buf bytes.Buffer
	if err := e.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	for _, cut := range []int{1, len(data) / 3, len(data) - 1} {
		err := core.New(g).LoadIndexesData(data[:cut], false)
		if !errors.Is(err, snapshot.ErrBadSnapshot) {
			t.Fatalf("truncate at %d: want ErrBadSnapshot, got %v", cut, err)
		}
	}
	// Flip one byte at several positions; any error must be the typed
	// sentinel family (fingerprint bytes yield the mismatch error instead).
	for pos := 0; pos < len(data); pos += len(data)/13 + 1 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		err := core.New(g).LoadIndexesData(mut, false)
		if err == nil {
			t.Fatalf("flip at %d: corruption not detected", pos)
		}
		if !errors.Is(err, snapshot.ErrBadSnapshot) && !errors.Is(err, snapshot.ErrFingerprintMismatch) {
			t.Fatalf("flip at %d: untyped error %v", pos, err)
		}
	}
}

// TestSnapshotTNRWithoutCHRejected asserts the dependency check: a TNR
// section cannot be installed without a hierarchy to hang it on.
func TestSnapshotTNRWithoutCHRejected(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "snapG", Rows: 8, Cols: 8, Seed: 7})
	e := core.New(g)
	e.EnsureIndex(core.IERTNR)
	var buf bytes.Buffer
	if err := e.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	// Re-frame the container keeping only the TNR section.
	_, payloads, err := snapshot.Parse(buf.Bytes(), true)
	if err != nil {
		t.Fatal(err)
	}
	var secs []snapshot.Section
	for _, p := range payloads {
		if p.Name != "TNR" {
			continue
		}
		data := p.Data
		secs = append(secs, snapshot.Section{Name: p.Name, Encode: func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		}})
	}
	if len(secs) != 1 {
		t.Fatalf("expected a TNR section, got %d", len(secs))
	}
	var tnrOnly bytes.Buffer
	if err := snapshot.Write(&tnrOnly, snapshot.Fingerprint(g), secs); err != nil {
		t.Fatal(err)
	}
	if err := core.New(g).LoadIndexesData(tnrOnly.Bytes(), false); !errors.Is(err, snapshot.ErrBadSnapshot) {
		t.Fatalf("want ErrBadSnapshot for TNR without CH, got %v", err)
	}
}

// TestSnapshotV1SectionRejected stamps each index section in turn with the
// retired layout version 1 (re-framed, so the checksum is valid and the
// codec itself must refuse) and asserts the typed error under both the
// decoding and the aliasing load, and from an engine that already holds
// every index.
func TestSnapshotV1SectionRejected(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "snapV1", Rows: 8, Cols: 8, Seed: 8})
	e := core.New(g)
	for _, kind := range []core.MethodKind{core.Gtree, core.ROAD, core.IERPHL, core.IERTNR} {
		e.EnsureIndex(kind)
	}
	var buf bytes.Buffer
	if err := e.SaveIndexes(&buf); err != nil {
		t.Fatal(err)
	}
	fp, payloads, err := snapshot.Parse(buf.Bytes(), true)
	if err != nil {
		t.Fatal(err)
	}
	stamped := 0
	for _, victim := range payloads {
		if victim.Name == core.SecGraph {
			continue // the graph section's own layout version is 1
		}
		stamped++
		secs := make([]snapshot.Section, len(payloads))
		for i, p := range payloads {
			data := p.Data
			if p.Name == victim.Name {
				data = append([]byte{1, 0}, data[2:]...)
			}
			secs[i] = snapshot.Section{Name: p.Name, Mappable: p.Mappable, Encode: func(w io.Writer) error {
				_, err := w.Write(data)
				return err
			}}
		}
		var v1 bytes.Buffer
		if err := snapshot.Write(&v1, fp, secs); err != nil {
			t.Fatal(err)
		}
		for _, load := range []struct {
			name  string
			into  *core.Engine
			alias bool
		}{
			{"decoded", core.New(g), false},
			{"aliased", core.New(g), true},
			// Every section decodes, also one whose index is already built.
			{"decoded by the engine that built it", e, false},
		} {
			if err := load.into.LoadIndexesData(v1.Bytes(), load.alias); !errors.Is(err, snapshot.ErrBadSnapshot) {
				t.Errorf("%s stamped v1, %s: want ErrBadSnapshot, got %v", victim.Name, load.name, err)
			}
		}
	}
	if stamped != 5 {
		t.Fatalf("stamped %d index sections, want 5 (Gtree, ROAD, PHL, CH, TNR)", stamped)
	}
}
