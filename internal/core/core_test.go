package core_test

import (
	"testing"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/knn"
)

func TestIndexesBuiltOnceAndTimed(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 12, Cols: 12, Seed: 122})
	e := core.New(g)
	a := e.GtreeIndex()
	b := e.GtreeIndex()
	if a != b {
		t.Fatal("G-tree rebuilt on second access")
	}
	if _, ok := e.BuiltIndexes()["Gtree"]; !ok {
		t.Fatal("build time not recorded")
	}
	// CH shared between PHL and TNR.
	_ = e.PHLIndex()
	chx := e.CHIndex()
	_ = e.TNRIndex()
	if e.CHIndex() != chx {
		t.Fatal("CH rebuilt")
	}
}

func TestIndexSizesPositive(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 10, Cols: 10, Seed: 123})
	e := core.New(g)
	for _, kind := range core.Kinds() {
		objs := knn.NewObjectSet(g, []int32{1, 2, 3})
		if _, err := e.NewSession(kind, e.NewBinding(objs, []core.MethodKind{kind})); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if s := e.IndexSize(kind); s <= 0 {
			t.Fatalf("%v size %d", kind, s)
		}
	}
}

func TestMethodNames(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 8, Cols: 8, Seed: 125})
	e := core.New(g)
	objs := knn.NewObjectSet(g, []int32{5})
	for _, kind := range core.Kinds() {
		m, err := e.NewSession(kind, e.NewBinding(objs, []core.MethodKind{kind}))
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() == "" {
			t.Fatalf("%v has empty name", kind)
		}
	}
}
