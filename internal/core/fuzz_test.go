package core_test

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/snapshot"
)

// FuzzSectionCodecs puts a fuzzed payload in one section of an otherwise
// valid snapshot — graph plus every index of a 6x6 network — re-framed by
// snapshot.Write, so the checksum passes and the section's codec runs on
// the fuzzed bytes. The verified and the mapped loads must answer nil or
// ErrBadSnapshot, never panic. An engine that accepted the payload, on
// either path, must then answer KNN from every vertex on every method kind,
// and Range where the kind has one: a decoder may pass wrong content, but
// never an index whose queries panic or hang.
//
// The victim byte picks a slot in the section order the format has always
// had, so a corpus entry keeps naming the section it was found in. The
// retired SILC section keeps its slot after ROAD: a payload there adds a
// SILC section to the file, which both loads must refuse.
func FuzzSectionCodecs(f *testing.F) {
	g := gen.Network(gen.NetworkSpec{Name: "fuzz", Rows: 6, Cols: 6, Seed: 1})
	e := core.New(g)
	buildAll(e)
	var buf bytes.Buffer
	if err := e.SaveIndexes(&buf); err != nil {
		f.Fatal(err)
	}
	fp, base, err := snapshot.Parse(buf.Bytes(), true)
	if err != nil {
		f.Fatal(err)
	}
	if base[2].Name != "ROAD" {
		f.Fatalf("section 2 is %s, want ROAD", base[2].Name)
	}
	const retired = 3
	slots := append(append(base[:retired:retired], snapshot.Payload{Name: "SILC", Mappable: true}), base[retired:]...)
	for i, p := range slots {
		f.Add(uint8(i), p.Data)
		f.Add(uint8(i), p.Data[:len(p.Data)/2])
	}
	objs := knn.NewObjectSet(g, gen.Uniform(g, 0.2, 1))
	// The radius reaches a few objects from a typical vertex.
	near := knn.BruteForce(g, objs, int32(g.NumVertices()/2), 3)
	radius := near[len(near)-1].Dist

	f.Fuzz(func(t *testing.T, victim uint8, payload []byte) {
		v := int(victim) % len(slots)
		var secs []snapshot.Section
		for i, p := range slots {
			data := p.Data
			if i == v {
				data = payload
			} else if i == retired {
				continue
			}
			secs = append(secs, snapshot.Section{Name: p.Name, Mappable: p.Mappable, Encode: func(w io.Writer) error {
				_, err := w.Write(data)
				return err
			}})
		}
		var out bytes.Buffer
		if err := snapshot.Write(&out, fp, secs); err != nil {
			t.Fatal(err)
		}
		for _, alias := range []bool{false, true} {
			if _, _, err := core.LoadGraphData(out.Bytes(), alias); err != nil && !errors.Is(err, snapshot.ErrBadSnapshot) {
				t.Fatalf("section %s, alias=%v: LoadGraphData: untyped error %v", slots[v].Name, alias, err)
			}
			loaded := core.New(g)
			err := loaded.LoadIndexesData(out.Bytes(), alias)
			if v == retired && !errors.Is(err, snapshot.ErrBadSnapshot) {
				t.Fatalf("retired section SILC, alias=%v: LoadIndexesData: want ErrBadSnapshot, got %v", alias, err)
			}
			if err != nil {
				if !errors.Is(err, snapshot.ErrBadSnapshot) {
					t.Fatalf("section %s, alias=%v: LoadIndexesData: untyped error %v", slots[v].Name, alias, err)
				}
				continue
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				queryEveryKind(loaded, objs, radius)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("section %s, alias=%v: queries on the loaded engine still running after 10s", slots[v].Name, alias)
			}
		}
	})
}

// queryEveryKind runs KNN, and Range where the kind has one, from every
// vertex on every method kind of e.
func queryEveryKind(e *core.Engine, objs *knn.ObjectSet, radius graph.Dist) {
	for _, kind := range core.Kinds() {
		s, err := e.NewSession(kind, e.NewBinding(objs, []core.MethodKind{kind}))
		if err != nil {
			panic(err)
		}
		r, ranges := s.(knn.RangeMethod)
		for q := int32(0); q < int32(e.G.NumVertices()); q++ {
			s.KNN(q, 3)
			if ranges {
				r.Range(q, radius)
			}
		}
	}
}
