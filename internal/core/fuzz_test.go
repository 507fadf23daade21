package core_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/snapshot"
)

// FuzzSectionCodecs puts a fuzzed payload in one section of an otherwise
// valid snapshot — graph plus every index of a 6x6 network — re-framed by
// snapshot.Write, so the checksum passes and the section's codec runs on
// the fuzzed bytes. The verified and the mapped loads must answer nil or
// ErrBadSnapshot, never panic.
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
	for i, p := range base {
		f.Add(uint8(i), p.Data)
		f.Add(uint8(i), p.Data[:len(p.Data)/2])
	}

	f.Fuzz(func(t *testing.T, victim uint8, payload []byte) {
		v := int(victim) % len(base)
		secs := make([]snapshot.Section, len(base))
		for i, p := range base {
			data := p.Data
			if i == v {
				data = payload
			}
			secs[i] = snapshot.Section{Name: p.Name, Mappable: p.Mappable, Encode: func(w io.Writer) error {
				_, err := w.Write(data)
				return err
			}}
		}
		var out bytes.Buffer
		if err := snapshot.Write(&out, fp, secs); err != nil {
			t.Fatal(err)
		}
		for _, alias := range []bool{false, true} {
			if err := core.New(g).LoadIndexesData(out.Bytes(), alias); err != nil && !errors.Is(err, snapshot.ErrBadSnapshot) {
				t.Fatalf("section %s, alias=%v: LoadIndexesData: untyped error %v", base[v].Name, alias, err)
			}
			if _, _, err := core.LoadGraphData(out.Bytes(), alias); err != nil && !errors.Is(err, snapshot.ErrBadSnapshot) {
				t.Fatalf("section %s, alias=%v: LoadGraphData: untyped error %v", base[v].Name, alias, err)
			}
		}
	})
}
