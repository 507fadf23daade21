package rnknn

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"rnknn/internal/gen"
)

// TestDBKNNAppendZeroAllocs pins the public-API half of the Issue 5
// contract: on a warm DB, KNNAppend into a caller-reused buffer performs
// zero heap allocations per query for every enabled method and for
// MethodAuto (the planner formats its rationale only for Explain) — the
// pooled session owns all transient search state, the interrupt closure is
// bound once at session manufacture, and result storage is caller-owned. The
// buffered KNN form allocates exactly its caller-visible result slice and
// nothing else, which the companion BenchmarkDBKNNAllocs tracks in the
// perf trajectory.
func TestDBKNNAppendZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every queried index")
	}
	if raceEnabled {
		t.Skip("race-detector sync.Pool drops Puts; pooled sessions are re-manufactured mid-run")
	}
	g := gen.Network(gen.NetworkSpec{Name: "alloc", Rows: 24, Cols: 24, Seed: 606})
	db, err := Open(g,
		WithMethods(INE, IERPHL, IERCH, Gtree, ROAD),
		WithObjects(DefaultCategory, gen.Uniform(g, 0.05, 13)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const k = 8

	for _, m := range append(db.Methods(), MethodAuto) {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			opt := WithMethod(m)
			var buf []Result
			// Warm up: manufacture the pooled session and grow its scratch
			// to steady state.
			for q := int32(0); q < 16; q++ {
				buf, err = db.KNNAppend(ctx, q*29, k, buf[:0], opt)
				if err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(50, func() {
				buf, _ = db.KNNAppend(ctx, 137, k, buf[:0], opt)
			})
			if allocs != 0 {
				t.Errorf("%s: warm db.KNNAppend allocates %v allocs/op, want 0", m, allocs)
			}
			if len(buf) != k {
				t.Fatalf("%s: got %d results, want %d", m, len(buf), k)
			}
		})
	}

	// A range is as allocation-free on either of its forms, and through the
	// planner (which picks IER-PHL at this density).
	t.Run("Range", func(t *testing.T) {
		for _, m := range []Method{MethodAuto, INE, IERPHL} {
			t.Run(m.String(), func(t *testing.T) {
				opt := WithMethod(m)
				var buf []Result
				for q := int32(0); q < 8; q++ {
					var err error
					buf, err = db.RangeAppend(ctx, q*31, 4000, buf[:0], opt)
					if err != nil {
						t.Fatal(err)
					}
				}
				allocs := testing.AllocsPerRun(50, func() {
					buf, _ = db.RangeAppend(ctx, 137, 4000, buf[:0], opt)
				})
				if allocs != 0 || len(buf) == 0 {
					t.Errorf("warm db.RangeAppend allocates %v allocs/op for %d results, want 0 for some", allocs, len(buf))
				}
			})
		}
	})
}

// TestBindingFixedCost gates what one registered category costs however few
// objects it holds — the in-tree twin of what rnbench's rss_mb sees of the
// harness's 148 categories (four times over on a shard set). A binding holds
// one object set (a membership bit per vertex) that every derived index
// reads, the R-tree, ROAD's occupancy bit per Rnet, and G-tree's per-node
// count and leaf offset: ≈7 KB on NW. The next per-vertex or per-Rnet array
// added to a binding (the per-Rnet counts and two private membership
// bitsets made it 52 KB, G-tree's per-node slice headers 22 KB) fails here,
// not at a benchmark bound.
func TestBindingFixedCost(t *testing.T) {
	if testing.Short() {
		t.Skip("builds PHL, G-tree and ROAD on NW")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the binding's")
	}
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	db, err := Open(g, WithMethods(INE, IERPHL, Gtree, ROAD))
	if err != nil {
		t.Fatal(err)
	}
	const cats = 64
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for c := int32(0); c < cats; c++ {
		if err := db.RegisterObjects(fmt.Sprint("cat", c), []int32{c * 131, c*131 + 7000}); err != nil {
			t.Fatal(err)
		}
	}
	perCat := float64(heap()-before) / cats / 1024
	t.Logf("%.1f KB per two-object category on %s (|V| = %d)", perCat, spec.Name, g.NumVertices())
	if perCat > 10 {
		t.Errorf("a two-object category costs %.1f KB, want <= 10", perCat)
	}
	runtime.KeepAlive(db)
}

// TestSparseMutationCost gates how a small object mutation scales with the
// network: the same 4-vertex insert and remove run on an 8-object category
// of DE (1,389 vertices) and of NW (21,825), with INE, IER-PHL and G-tree
// enabled, each mutation followed by one k=1 query per method. A mutation
// derives only the object set; the first query that reads an index brings
// it up to date, so what is counted is the mutation plus every derivation
// its next queries trigger (the queries themselves allocate nothing).
// Deriving an epoch copies what its delta touches — the membership pages,
// the occurrence list sized by the objects, the R-tree's touched paths — so
// NW may cost at most 1.5x DE's bytes per mutation plus 1 KiB, the
// directory of membership pages. A whole-bitset or per-node copy (2.7 KB
// and 2.7 KB on NW) fails here.
func TestSparseMutationCost(t *testing.T) {
	if testing.Short() {
		t.Skip("builds PHL and G-tree on DE and NW")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the mutation's")
	}
	objs := []int32{11, 103, 207, 309, 401, 503, 707, 1001}
	delta := []int32{97, 599, 899, 1299}
	perMutation := func(network string) float64 {
		spec, _ := gen.LadderSpec(network)
		g := gen.Network(spec)
		db, err := Open(g, WithMethods(INE, IERPHL, Gtree), WithObjects(DefaultCategory, objs))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var buf []Result
		read := func() {
			for _, m := range db.Methods() {
				if buf, err = db.KNNAppend(ctx, objs[0], 1, buf[:0], WithMethod(m)); err != nil {
					t.Fatal(err)
				}
			}
		}
		mutate := func() {
			if err := db.InsertObjects(DefaultCategory, delta); err != nil {
				t.Fatal(err)
			}
			read()
			if err := db.RemoveObjects(DefaultCategory, delta); err != nil {
				t.Fatal(err)
			}
			read()
		}
		for range 64 {
			mutate()
		}
		const ops = 512
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range ops {
			mutate()
		}
		runtime.ReadMemStats(&after)
		b := float64(after.TotalAlloc-before.TotalAlloc) / (2 * ops)
		t.Logf("%s (|V| = %d): %.0f B per mutation and the derivations it defers", network, g.NumVertices(), b)
		return b
	}
	de, nw := perMutation("DE"), perMutation("NW")
	if limit := 1.5*de + 1024; nw > limit {
		t.Errorf("NW costs %.0f B per mutation, DE %.0f: want <= %.0f", nw, de, limit)
	}
}

// TestMutationCostIndependentOfSetSize gates that a mutation costs its
// delta, not its category: the same 4-vertex insert and remove, with no
// reads between them, run on an 8-object category and on a density-0.1
// one (~2,180 objects) of NW with INE, IER-PHL and G-tree enabled. A
// mutation derives only the object set — the membership directory, the
// pages its delta touches and the effective delta — so the dense
// category's bytes per mutation may exceed the sparse one's by at most
// 512 B (both read ~0.9 KB). An object set that copies its sorted vertex
// list per mutation (≈8.7 KB on the dense category) fails here.
func TestMutationCostIndependentOfSetSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds PHL and G-tree on NW")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the mutation's")
	}
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	sparse, dense := []int32{11, 103, 207, 309, 401, 503, 707, 1001}, gen.Uniform(g, 0.1, 61)
	db, err := Open(g, WithMethods(INE, IERPHL, Gtree), WithObjects("sparse", sparse), WithObjects("dense", dense))
	if err != nil {
		t.Fatal(err)
	}
	// The delta: four vertices on four membership pages, in neither
	// category.
	in := map[int32]bool{}
	for _, v := range slices.Concat(sparse, dense) {
		in[v] = true
	}
	var delta []int32
	for v := int32(97); len(delta) < 4; v += 4099 {
		for in[v] {
			v++
		}
		delta = append(delta, v)
	}
	perMutation := func(cat string) float64 {
		mutate := func() {
			if err := db.InsertObjects(cat, delta); err != nil {
				t.Fatal(err)
			}
			if err := db.RemoveObjects(cat, delta); err != nil {
				t.Fatal(err)
			}
		}
		for range 64 {
			mutate()
		}
		const ops = 512
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range ops {
			mutate()
		}
		runtime.ReadMemStats(&after)
		b := float64(after.TotalAlloc-before.TotalAlloc) / (2 * ops)
		n, _ := db.NumObjects(cat)
		t.Logf("%s (%d objects): %.0f B per mutation", cat, n, b)
		return b
	}
	s, d := perMutation("sparse"), perMutation("dense")
	if d > s+512 {
		t.Errorf("a mutation of the dense category costs %.0f B, of the sparse one %.0f: want <= %.0f", d, s, s+512)
	}
}

// TestMappedOpenCost gates what a warm start costs in heap: a mapped open
// (OpenSnapshotFile) of a {INE, IER-PHL, Gtree} snapshot decodes section
// headers and aliases the mapped bytes, so its heap does not grow with the
// network. The least of five opens of CA's snapshot (57 MB) may allocate
// at most 16 KiB more than NW's (23 MB); both read ~135 KB. An open that
// copies every section allocates the snapshot's size and fails here. This
// is the deterministic form of the claim BenchmarkOpenFromSnapshot times:
// "a warm start costs page faults, not a decode of every byte".
func TestMappedOpenCost(t *testing.T) {
	if testing.Short() {
		t.Skip("builds PHL and G-tree on NW and CA")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the open's")
	}
	methods := WithMethods(INE, IERPHL, Gtree)
	openHeap := func(network string) uint64 {
		spec, _ := gen.LadderSpec(network)
		db, err := Open(gen.Network(spec), methods)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), network+".rnks")
		if err := db.SaveIndexesFile(path); err != nil {
			t.Fatal(err)
		}
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := OpenSnapshotFile(path, methods)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d B of heap per mapped open", network, least)
		return least
	}
	const slack = 16 << 10
	if nw, ca := openHeap("NW"), openHeap("CA"); ca > nw+slack {
		t.Errorf("a mapped open of CA allocates %d B, of NW %d B: want at most NW's + %d", ca, nw, slack)
	}
}
