package snapshot_test

import (
	"bytes"
	"errors"
	"testing"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/snapshot"
)

// FuzzParse: Parse answers any input with sections or an error wrapping
// ErrBadSnapshot, and never panics. Accepted payloads are views of the
// input. Seeded from a real snapshot (graph, G-tree, CH, PHL) and from
// hand-framed containers.
func FuzzParse(f *testing.F) {
	g := gen.Network(gen.NetworkSpec{Name: "fuzz", Rows: 6, Cols: 6, Seed: 1})
	e := core.New(g)
	for _, kind := range []core.MethodKind{core.Gtree, core.IERPHL} {
		e.EnsureIndex(kind)
	}
	var real bytes.Buffer
	if err := e.SaveIndexes(&real); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	var deps bytes.Buffer
	if err := snapshot.Write(&deps, 7, []snapshot.Section{
		depSec("CH", nil, true, []byte("contraction")),
		depSec("TNR", []string{"CH"}, false, []byte("transit")),
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(deps.Bytes())
	f.Add([]byte(snapshot.Magic))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, verify := range []bool{true, false} {
			_, payloads, err := snapshot.Parse(data, verify)
			if err != nil {
				if !errors.Is(err, snapshot.ErrBadSnapshot) {
					t.Fatalf("verify=%v: untyped error %v", verify, err)
				}
				continue
			}
			for _, p := range payloads {
				if len(p.Data) > 0 && !inside(data, p.Data) {
					t.Fatalf("verify=%v: section %q is not a view of the input", verify, p.Name)
				}
			}
		}
	})
}

// inside reports whether sub is a subslice of data.
func inside(data, sub []byte) bool {
	for i := range data {
		if &data[i] == &sub[0] {
			return len(data)-i >= len(sub)
		}
	}
	return false
}
