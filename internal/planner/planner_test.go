package planner

import (
	"testing"

	"rnknn/internal/core"
)

// TestStaticRegimeTable pins the model's crossovers: INE at high density,
// the fast-oracle IER family at low density and large k, with G-tree
// beating INE at low density when no fast oracle is enabled — the paper's
// Table 5 — and, on an NW-sized network, the picks rnbench's regime anchor
// (bench/README.md) asserts on measured latencies over its density x k grid.
func TestStaticRegimeTable(t *testing.T) {
	type row struct {
		name    string
		enabled []core.MethodKind
		f       Features
		want    core.MethodKind
	}
	const n = 100000
	cases := []row{
		{"high density small k -> INE",
			[]core.MethodKind{core.INE, core.IERPHL, core.Gtree},
			Features{K: 5, NumObjects: n / 10, NumVertices: n}, core.INE},
		{"low density large k -> IER-PHL",
			[]core.MethodKind{core.INE, core.IERPHL, core.Gtree},
			Features{K: 100, NumObjects: n / 10000, NumVertices: n}, core.IERPHL},
		{"low density no fast oracle -> Gtree over INE",
			[]core.MethodKind{core.INE, core.Gtree},
			Features{K: 10, NumObjects: n / 10000, NumVertices: n}, core.Gtree},
		{"high density with only IER variants -> cheapest oracle",
			[]core.MethodKind{core.IERCH, core.IERPHL},
			Features{K: 10, NumObjects: n / 10, NumVertices: n}, core.IERPHL},
	}

	// The rnbench grid on rung NW.
	const nw = 21825
	withOracle := []core.MethodKind{core.INE, core.IERPHL, core.Gtree}
	noOracle := []core.MethodKind{core.INE, core.Gtree}
	grid := func(enabled []core.MethodKind, density float64, k int, want core.MethodKind) row {
		return row{"NW grid", enabled, Features{K: k, NumObjects: int(density * nw), NumVertices: nw}, want}
	}
	for _, k := range []int{1, 5, 10, 25, 50} {
		if k <= 10 {
			cases = append(cases, grid(withOracle, 0.1, k, core.INE))
		}
		for _, d := range []float64{0.01, 0.001, 0.0001} {
			cases = append(cases, grid(withOracle, d, k, core.IERPHL))
		}
		cases = append(cases, grid(noOracle, 0.1, k, core.INE))
		if k >= 10 {
			cases = append(cases, grid(noOracle, 0.001, k, core.Gtree))
		}
	}

	for _, c := range cases {
		got := Choose(c.enabled, c.f)
		if got.Kind != c.want {
			t.Errorf("%s %v k=%d density=%.2g: chose %v (%s), want %v",
				c.name, c.enabled, c.f.K, c.f.Density(), got.Kind, got.Reason(), c.want)
		}
		if got.Cost <= 0 || got.Reason() == "" {
			t.Errorf("%s: incomplete choice %+v", c.name, got)
		}
	}

	// An empty category clamps to a positive density, and every method kind
	// has a row: a kind the table forgot would cost nothing and always win.
	empty := Features{K: 3, NumObjects: 0, NumVertices: 100}
	if d := empty.Density(); d <= 0 {
		t.Fatalf("empty category density must clamp positive, got %g", d)
	}
	for _, kind := range core.Kinds() {
		if c := Choose([]core.MethodKind{kind}, empty); c.Cost <= 0 {
			t.Errorf("%v has no cost row: estimated at %v", kind, c.Cost)
		}
	}
}

// TestChooseBatch pins the shared-expansion decision surface: expensive
// single queries (sparse regime) share, cheap ones (dense regime) fan out,
// and a group of one never shares.
func TestChooseBatch(t *testing.T) {
	nv := 110000
	sparse := Features{K: 10, NumObjects: 110, NumVertices: nv}  // ~1e-3: slow INE
	dense := Features{K: 10, NumObjects: 11000, NumVertices: nv} // 0.1: fast INE

	if bc := ChooseBatch(sparse, 64); !bc.Shared {
		t.Fatalf("sparse 64-group must share, got %s", bc.Reason())
	} else if bc.GroupCost <= 0 || bc.SingleCost <= 0 || bc.Reason() == "" {
		t.Fatalf("incomplete shared choice: %+v", bc)
	}
	if bc := ChooseBatch(dense, 64); bc.Shared {
		t.Fatalf("dense 64-group must fan out, got %s", bc.Reason())
	}
	if bc := ChooseBatch(sparse, 1); bc.Shared {
		t.Fatalf("singleton group must fan out, got %s", bc.Reason())
	}
}

var sinkChoice Choice

// BenchmarkPlannerChoose is the in-tree twin of rnbench's planner.self_ns:
// one Choose among the benchmark fixture's four methods per op, cycling
// through the grid's 20 (density, k) cells. Planning must not allocate.
func BenchmarkPlannerChoose(b *testing.B) {
	const nw = 21825
	enabled := []core.MethodKind{core.INE, core.IERPHL, core.Gtree, core.ROAD}
	var cells []Features
	for _, d := range []float64{0.0001, 0.001, 0.01, 0.1} {
		for _, k := range []int{1, 5, 10, 25, 50} {
			cells = append(cells, Features{K: k, NumObjects: int(d * nw), NumVertices: nw})
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		sinkChoice = Choose(enabled, cells[i%len(cells)])
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkChoice = Choose(enabled, cells[0]) }); allocs != 0 {
		b.Fatalf("Choose allocates %.0f times per call, want 0", allocs)
	}
}
