package planner

import (
	"math"

	"rnknn/internal/core"
)

// methodCost is one method's row of the cost table: expected query
// nanoseconds as
//
//	base + perK·k + perKLogV·k·log2|V| + perSettle·settled
//
// where settled ≈ 1.2·k/density, capped at |V|, is how many vertices an
// INE-style expansion settles before it has found k objects under uniform
// density (Section 7.3 — exactly why INE degrades as density falls).
type methodCost struct {
	base, perK, perKLogV, perSettle float64
}

// Model is the planner's cost surface as a function of (k, density, |V|):
// one row per method, and the shared-expansion batch surface. There is one
// Model value, model below.
type Model struct {
	perMethod [core.NumKinds]methodCost

	// Shared-expansion batch surface (see ChooseBatch). A shared group
	// costs roughly
	//
	//	SharedBaseNanos + single·(1 + SharedMemberFrac·(size-1))
	//
	// where single is the one-query estimate — but that linear form only
	// holds where the members' search regions overlap heavily, so the
	// decision itself uses the measured crossover SharedMinSingleNanos:
	// sharing wins exactly when individual queries are expensive enough
	// (large regions ⇒ large overlap within one partition leaf), and loses
	// when queries are cheap (tiny regions ⇒ the multi-source frontier's
	// per-vertex width tax dominates).
	SharedBaseNanos      float64
	SharedMemberFrac     float64
	SharedMinSingleNanos float64
}

// model is the one cost table. The rows of the methods the benchmark
// fixture enables are read off rnbench's per-layer probes on rung NW
// (`bash bench/run.sh --workload lib-auto --trace 1`: |V| = 21,825, so
// log2|V| ≈ 14.4; the method probes run k = 10 at density 0.1 "dense" and
// 0.001 "sparse" in one cold pass, and read up to 1.5× the warm medians of
// the same cells). The other two rows, IER-CH and IER-TNR, carry the
// paper's orderings (Table 5, Figures 4, 10, 11), unmeasured in this
// repository. What the table must get right is the crossovers, not the
// microseconds: planner.regret above 1.10 on a traced lib-auto run is the
// signal to re-read the probes named below.
var model = Model{
	perMethod: [...]methodCost{
		// ine.dense_us·1000/120 — the probe settles ~1.2·10/0.1 vertices.
		// It reads 62-82 cold; warm, a settled vertex costs 44-67 ns across
		// densities 0.1 … 0.001 and k = 1 … 50 (dijkstra.settle_ns reads ~70:
		// it fills the queue over 5,000 settles). The crossover against
		// IER-PHL rides on this number: at 50 it falls at density 0.069,
		// between the grid's 0.1 (INE 1.5-4.6× faster for k ≤ 10, level at
		// k = 25, 1.3× slower at 50) and 0.01 (INE 3× slower at k = 1, ≥10×
		// from k = 5). Since INE walks degree-2 chains it settles about half
		// the vertices counted here, but that pays where objects are sparse:
		// re-read on one host, ine.dense_us held (14.4 → 12.6-14.4 µs)
		// while ine.sparse_us fell 1,418 → 959-1,062 µs. The row stays;
		// a lower one would move no pick on the grid.
		core.INE: {perSettle: 50},
		// The IER family verifies ~2.5 Euclidean candidates per result
		// (Section 3.2) at one oracle distance each (Section 5: PHL nearly
		// flat in |V|, TNR close behind, CH growing with |V|).
		// PHL's 350 ns is ier.phl.dense_us·1000/(2.5·10) on the warm reading
		// (9.5 µs, so 380; the probe's cold pass reads 12-17 µs), rounded —
		// the dense probe, because the one decision this number moves is the
		// crossover against INE, which sits at the dense end.
		// ier.phl.sparse_us reads a third of it; no value in between changes
		// a pick on the grid.
		core.IERPHL: {perK: 2.5 * 350},
		core.IERTNR: {perK: 2.5 * 2500},
		core.IERCH:  {perKLogV: 2.5 * 600},
		// Leaf Dijkstra plus ~k border-matrix assemblies up the partition
		// tree (Algorithm 3/4). gtree.dense_us (60-95) and gtree.sparse_us
		// (270-430) bracket the row's 178 µs at k = 10. It decides only where
		// no fast oracle is enabled, against INE: INE at densities 0.1 and
		// 0.01, G-tree from k = 5 up at 0.001 (ine.sparse_us ≈ 800; 960-1,060
		// on a host that read the parent's 1,418, so the pick holds).
		core.Gtree: {base: 120000, perKLogV: 400},
		// The same hierarchy, consistently slower in the paper's runs
		// (Figures 10-11). road.sparse_us reads about twice gtree.sparse_us
		// (855-1,042 against 416-490 µs on one host) since ROAD's queue holds
		// each vertex once; it read three times before (1,254 against 419).
		core.ROAD: {base: 2 * 120000, perKLogV: 2 * 400},
	},

	// batch.fanout_us/64 is one member on its own (≈0.8 ms: k = 10 INE on
	// the sparse category), batch.shared_us the shared group of 64, and
	// SharedMemberFrac is (shared_us/(fanout_us/64) − 1)/63, 0.5-0.6 on NW.
	// It and the base feed only the group estimate Batch.Explain prints.
	SharedBaseNanos:  20000,
	SharedMemberFrac: 0.55,
	// The decision. No probe brackets it tighter than ine.dense_us (≈6 µs a
	// member, where fan-out wins) below and batch.fanout_us/64 above, where
	// batch.shared_us wins 1.6-2×; BenchmarkDBBatchClustered (bench_test.go)
	// gates that win at ≥1.5× on a 110k-vertex network.
	SharedMinSingleNanos: 100000,
}

// terms are one query's features as the quantities the methodCost
// coefficients multiply, computed once per decision.
type terms struct{ k, kLogV, settled float64 }

func (f Features) terms() terms {
	k, n := float64(f.K), float64(f.NumVertices)
	return terms{k: k, kLogV: k * math.Log2(math.Max(n, 2)), settled: math.Min(1.2*k/f.Density(), n)}
}

// nanos is the row's estimate for one query.
func (c *methodCost) nanos(x terms) float64 {
	return c.base + c.perK*x.k + c.perKLogV*x.kLogV + c.perSettle*x.settled
}
