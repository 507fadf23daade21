package rnknn

import (
	"context"
	"errors"
	"testing"
	"time"

	"rnknn/internal/gen"
)

// TestMethodAutoRegimes is the planner acceptance contract: on one DB,
// MethodAuto must resolve to different methods across (k, density)
// regimes — INE where objects are dense and k small (the expansion finds
// them immediately, Section 7.3), a fast-oracle method where objects are
// sparse and k large (Figures 10-11). The checked-in DefaultModel is
// fitted to one machine's measurements and may legitimately place the
// dense crossover elsewhere, so the test pins the planner to the seed
// model — the paper's regime table — explicitly.
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
	db.plan.SetModel(nil) // nil reverts to the hand-seeded paper priors

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
	if _, err := db.Explain(0, 5, WithMethod(DisBrw)); !errors.Is(err, ErrMethodNotEnabled) {
		t.Fatalf("disabled method: %v", err)
	}
	if _, err := db.Explain(-5, 5); !errors.Is(err, ErrBadVertex) {
		t.Fatalf("bad vertex: %v", err)
	}
}

// TestAutoAdaptsToObservedLatency: after feeding the planner heavily
// skewed observations for a regime, MethodAuto must move off its static
// choice within that regime.
func TestAutoAdaptsToObservedLatency(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "adapt", Rows: 16, Cols: 20, Seed: 8})
	db, err := Open(g,
		WithMethods(INE, Gtree),
		WithObjects(DefaultCategory, gen.Uniform(g, 0.1, 3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	before, err := db.Explain(0, 2, WithMethod(MethodAuto))
	if err != nil {
		t.Fatal(err)
	}
	if before.Method != INE {
		t.Fatalf("static dense choice = %v, want INE", before.Method)
	}
	b, err := db.snapshot(DefaultCategory)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate INE latencies collapsing (as if the regime's real traffic
	// contradicted the model) and Gtree being fast.
	for i := 0; i < 30; i++ {
		db.plan.Observe(INE.kind(), db.features(2, b), 50*time.Millisecond)
		db.plan.Observe(Gtree.kind(), db.features(2, b), 50*time.Microsecond)
	}
	after, err := db.Explain(0, 2, WithMethod(MethodAuto))
	if err != nil {
		t.Fatal(err)
	}
	if after.Method != Gtree {
		t.Fatalf("after observations: %v (%s), want Gtree", after.Method, after.Reason)
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
