package rnknn

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"rnknn/internal/gen"
)

// TestMethodAutoRegimes is the planner acceptance contract: on one DB,
// MethodAuto must resolve to different methods across (k, density)
// regimes — INE where objects are dense and k small (the expansion finds
// them immediately, Section 7.3), a fast-oracle method where objects are
// sparse and k large (Figures 10-11).
func TestMethodAutoRegimes(t *testing.T) {
	// Large enough that a graph-wide INE scan (the sparse regime's worst
	// case) is clearly costlier than oracle-verified candidates.
	g := gen.Network(gen.NetworkSpec{Name: "auto", Rows: 64, Cols: 80, Seed: 13})
	db, err := Open(g,
		WithMethods(INE, IERPHL, Gtree),
		WithObjects("dense", gen.Uniform(g, 0.1, 3)),
		WithObjects("sparse", gen.Uniform(g, 0.003, 4)),
	)
	if err != nil {
		t.Fatal(err)
	}

	densePlan, err := db.Explain(0, 2, WithMethod(MethodAuto), WithCategory("dense"))
	if err != nil {
		t.Fatal(err)
	}
	sparsePlan, err := db.Explain(0, 50, WithMethod(MethodAuto), WithCategory("sparse"))
	if err != nil {
		t.Fatal(err)
	}
	if densePlan.Method != INE {
		t.Errorf("dense/small-k regime: planned %v (%s), want INE", densePlan.Method, densePlan.Reason)
	}
	if sparsePlan.Method == INE || sparsePlan.Method == MethodAuto {
		t.Errorf("sparse/large-k regime: planned %v (%s), want a non-INE method", sparsePlan.Method, sparsePlan.Reason)
	}
	if densePlan.Method == sparsePlan.Method {
		t.Errorf("planner chose %v for both regimes; the crossover is the point", densePlan.Method)
	}

	// And the auto-planned queries are still exactly correct in both.
	ctx := context.Background()
	for _, c := range []struct {
		cat string
		k   int
	}{{"dense", 2}, {"sparse", 50}} {
		got, err := db.KNN(ctx, 0, c.k, WithMethod(MethodAuto), WithCategory(c.cat))
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.BruteForceKNN(0, c.k, WithCategory(c.cat))
		if err != nil {
			t.Fatal(err)
		}
		if !SameResults(got, want) {
			t.Errorf("%s: auto answer %s != %s", c.cat, FormatResults(got), FormatResults(want))
		}
	}
}

// TestRangeMethodRegimes is the same contract for a range that names no
// method: the planner's one cost table picks among INE and the enabled IER
// family from the category's density alone — Euclidean restriction over a
// fast oracle where objects are sparse, INE where they are dense or no fast
// oracle is enabled — whatever the radius, and Stats and BatchResult.Method
// name the method that answered.
func TestRangeMethodRegimes(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "range-auto", Rows: 64, Cols: 80, Seed: 13})
	densities := []float64{0.0001, 0.001, 0.01, 0.1}
	radii := []Dist{0, 700, 5000, 40000, 1 << 40}
	cache := WithIndexCache(t.TempDir()) // PHL and G-tree are built once
	for _, c := range []struct {
		methods []Method
		want    [4]Method // per density
	}{
		{[]Method{INE, IERPHL}, [4]Method{IERPHL, IERPHL, IERPHL, INE}},
		{[]Method{INE, Gtree}, [4]Method{INE, INE, INE, INE}},
		// INE answers the dense regime even where it is not an enabled kNN
		// method.
		{[]Method{IERPHL, Gtree}, [4]Method{IERPHL, IERPHL, IERPHL, INE}},
	} {
		opts := []Option{WithMethods(c.methods...), cache}
		for i, d := range densities {
			opts = append(opts, WithObjects(fmt.Sprint(d), gen.Uniform(g, d, int64(20+i))))
		}
		db, err := Open(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		answered := map[Method]uint64{}
		for i, d := range densities {
			inCat := WithCategory(fmt.Sprint(d))
			b := db.Batch()
			for _, r := range radii {
				b.AddRange(99, r, inCat).AddRange(99, r, inCat, WithMethod(MethodAuto))
			}
			out, err := b.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for j, br := range out {
				if br.Method != c.want[i] {
					t.Errorf("%v, density %g, radius %d: range resolved to %v, want %v", c.methods, d, radii[j/2], br.Method, c.want[i])
				}
				want, err := db.BruteForceRange(99, radii[j/2], inCat)
				if err != nil || br.Err != nil || !SameResults(br.Results, want) {
					t.Errorf("%v, density %g, radius %d: got %s (%v), brute force %s (%v)", c.methods, d, radii[j/2],
						FormatResults(br.Results), br.Err, FormatResults(want), err)
				}
				answered[br.Method]++
			}
		}
		stats := db.Stats().Methods
		for m, n := range answered {
			if stats[m.String()].RangeQueries != n {
				t.Errorf("%v: Stats counts %d range queries under %v, %d were answered by it", c.methods, stats[m.String()].RangeQueries, m, n)
			}
		}
	}
}

// TestExplain covers the fixed-method path and validation.
func TestExplain(t *testing.T) {
	db := testDB(t)
	p, err := db.Explain(0, 5, WithMethod(Gtree))
	if err != nil || p.Method != Gtree || p.Reason == "" {
		t.Fatalf("fixed Explain = %+v, %v", p, err)
	}
	auto, err := db.Explain(0, 5, WithMethod(MethodAuto))
	if err != nil || auto.Method == MethodAuto || auto.Reason == "" {
		t.Fatalf("auto Explain = %+v, %v", auto, err)
	}
	if _, err := db.Explain(0, 0); !errors.Is(err, ErrBadK) {
		t.Fatalf("bad k: %v", err)
	}
	if _, err := db.Explain(0, 5, WithMethod(Method(42))); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: %v", err)
	}
	if _, err := batchDB(t).Explain(0, 5, WithMethod(ROAD)); !errors.Is(err, ErrMethodNotEnabled) {
		t.Fatalf("disabled method: %v", err)
	}
	if _, err := db.Explain(-5, 5); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("bad vertex: %v", err)
	}
}

// TestAutoPlanIgnoresHistory: MethodAuto's choice is a function of the
// query and the category's live object count, never of what ran before.
// Plans over a density x k grid must come back identical after thousands of
// explicit-method queries — graph-wide INE scans on the sparse category
// among them — and after an insert/remove pair that takes a category across
// a density decade and back.
func TestAutoPlanIgnoresHistory(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "history", Rows: 48, Cols: 60, Seed: 17})
	cats := map[string][]int32{
		"d0.1":   gen.Uniform(g, 0.1, 5),
		"d0.01":  gen.Uniform(g, 0.01, 6),
		"d0.001": gen.Uniform(g, 0.001, 7),
	}
	opts := []Option{WithMethods(INE, IERPHL, Gtree)}
	for name, objs := range cats {
		opts = append(opts, WithObjects(name, objs))
	}
	db, err := Open(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{1, 5, 10, 25, 50}
	plans := func() map[string]Plan {
		out := map[string]Plan{}
		for name := range cats {
			for _, k := range ks {
				p, err := db.Explain(0, k, WithMethod(MethodAuto), WithCategory(name))
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s k=%d", name, k)] = p
			}
		}
		return out
	}
	before := plans()

	ctx := context.Background()
	qs := gen.QueryVertices(g, 64, 9)
	var buf []Result
	for name := range cats {
		for _, k := range ks {
			for _, m := range db.Methods() {
				for _, q := range qs {
					if buf, err = db.KNNAppend(ctx, q, k, buf[:0], WithMethod(m), WithCategory(name)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	// Ten times the sparse category's size in fresh vertices: one decade up
	// on insert, back down on remove.
	sparse := cats["d0.001"]
	member := map[int32]bool{}
	for _, v := range sparse {
		member[v] = true
	}
	var fresh []int32
	for v := int32(0); len(fresh) < 10*len(sparse); v++ {
		if !member[v] {
			fresh = append(fresh, v)
		}
	}
	if err := db.InsertObjects("d0.001", fresh); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveObjects("d0.001", fresh); err != nil {
		t.Fatal(err)
	}

	after := plans()
	for cell, want := range before {
		if got := after[cell]; got != want {
			t.Errorf("%s: plan moved with history:\n before %+v\n after  %+v", cell, want, got)
		}
	}
}

// TestParseMethodAuto: "auto" round-trips case-insensitively.
func TestParseMethodAuto(t *testing.T) {
	for _, s := range []string{"Auto", "auto", "AUTO"} {
		m, err := ParseMethod(s)
		if err != nil || m != MethodAuto {
			t.Fatalf("ParseMethod(%q) = %v, %v", s, m, err)
		}
	}
	if MethodAuto.String() != "Auto" {
		t.Fatalf("MethodAuto.String() = %q", MethodAuto.String())
	}
	if m, err := ParseMethod("ier-phl"); err != nil || m != IERPHL {
		t.Fatalf("case-insensitive parse: %v, %v", m, err)
	}
}
