package rnknn

import (
	"context"
	"math"
	"sync"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/knn"
)

// sharedEquivDBs opens the three-network fixture the shared-expansion
// equivalence tests sweep: different shapes and seeds, every method family
// built, a dense and a sparse category each.
func sharedEquivDBs(t *testing.T) []*DB {
	t.Helper()
	specs := []gen.NetworkSpec{
		{Name: "shared-a", Rows: 16, Cols: 20, Seed: 9},
		{Name: "shared-b", Rows: 24, Cols: 24, Seed: 11},
		{Name: "shared-c", Rows: 30, Cols: 18, Seed: 13},
	}
	dbs := make([]*DB, len(specs))
	for i, spec := range specs {
		g := gen.Network(spec)
		db, err := Open(g,
			WithMethods(INE, IERPHL, Gtree, ROAD),
			WithObjects(DefaultCategory, gen.Uniform(g, 0.04, spec.Seed+1)),
			WithObjects("sparse", gen.Uniform(g, 0.006, spec.Seed+2)),
		)
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	return dbs
}

// clusteredQueries picks queries packed into partition leaves — the
// workload the grouping planner is built for. Leaves rotate so several
// groups form per batch.
func clusteredQueries(db *DB, n int) []int32 {
	pt := db.batchPartition()
	var leaves [][]int32
	for ni := range pt.Nodes {
		if pt.Nodes[ni].IsLeaf() && len(pt.Nodes[ni].Vertices) >= 4 {
			leaves = append(leaves, pt.Nodes[ni].Vertices)
		}
	}
	out := make([]int32, n)
	for i := range out {
		leaf := leaves[(i/8)%len(leaves)]
		out[i] = leaf[i%len(leaf)]
	}
	return out
}

// TestBatchSharedEquivalence is the tentpole's exactness gate: for every
// network, every built method, and every sharing mode (forced on, forced
// off, planner-decided), a batch of leaf-clustered queries must return
// exactly what the one-at-a-time API returns for each member.
func TestBatchSharedEquivalence(t *testing.T) {
	ctx := context.Background()
	for gi, db := range sharedEquivDBs(t) {
		queries := clusteredQueries(db, 24)
		for _, m := range db.Methods() {
			for _, mode := range []SharedMode{SharedOn, SharedOff, SharedAuto} {
				b := db.Batch().SharedExpansion(mode)
				for i, q := range queries {
					cat := DefaultCategory
					if i%2 == 1 {
						cat = "sparse"
					}
					b.AddKNN(q, 1+i%8, WithMethod(m), WithCategory(cat))
				}
				got, err := b.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range got {
					if r.Err != nil {
						t.Fatalf("graph %d %s mode %d op %d: %v", gi, m, mode, i, r.Err)
					}
					cat := DefaultCategory
					if i%2 == 1 {
						cat = "sparse"
					}
					want, err := db.KNN(ctx, queries[i], 1+i%8, WithMethod(m), WithCategory(cat))
					if err != nil {
						t.Fatal(err)
					}
					if !SameResults(r.Results, want) {
						t.Fatalf("graph %d %s mode %d op %d (q=%d k=%d): batch %s != individual %s",
							gi, m, mode, i, queries[i], 1+i%8, FormatResults(r.Results), FormatResults(want))
					}
				}
			}
		}
	}
}

// TestBatchSharedOnActuallyShares pins that SharedOn drives INE through the
// shared path (Shared flag and counters), that G-tree members — G-tree has no
// shared expansion — fan out even then, and that SharedOff never shares.
func TestBatchSharedOnActuallyShares(t *testing.T) {
	db := sharedEquivDBs(t)[0]
	ctx := context.Background()
	queries := clusteredQueries(db, 16)
	run := func(m Method) (got []BatchResult, sharedN int, before, after BatchStats) {
		before = db.batchStats.snapshot()
		b := db.Batch().SharedExpansion(SharedOn)
		for _, q := range queries {
			b.AddKNN(q, 5, WithMethod(m))
		}
		got, err := b.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if r.Shared {
				sharedN++
			}
		}
		return got, sharedN, before, db.batchStats.snapshot()
	}
	_, sharedN, before, after := run(INE)
	if sharedN == 0 || after.SharedGroups == before.SharedGroups {
		t.Fatalf("INE: SharedOn batch shared %d queries, groups %d -> %d",
			sharedN, before.SharedGroups, after.SharedGroups)
	}
	if after.SharedQueries-before.SharedQueries != uint64(sharedN) {
		t.Fatalf("INE: Shared flags (%d) disagree with counters (%d)",
			sharedN, after.SharedQueries-before.SharedQueries)
	}
	got, sharedN, before, after := run(Gtree)
	if sharedN != 0 || after.SharedGroups != before.SharedGroups ||
		after.FanoutQueries-before.FanoutQueries != uint64(len(queries)) {
		t.Fatalf("Gtree: SharedOn batch shared %d queries, groups %d -> %d, fan-out +%d; want 0, unmoved, +%d",
			sharedN, before.SharedGroups, after.SharedGroups, after.FanoutQueries-before.FanoutQueries, len(queries))
	}
	for i, r := range got {
		want, err := db.KNN(ctx, queries[i], 5, WithMethod(Gtree))
		if err != nil || r.Err != nil {
			t.Fatal(err, r.Err)
		}
		if r.Method != Gtree || !SameResults(r.Results, want) {
			t.Fatalf("Gtree member %d: method %s, %s != individual %s", i, r.Method, FormatResults(r.Results), FormatResults(want))
		}
	}
	// SharedOff: everything fans out.
	before = db.batchStats.snapshot()
	b := db.Batch().SharedExpansion(SharedOff)
	for _, q := range queries {
		b.AddKNN(q, 5, WithMethod(INE))
	}
	got, err := b.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Shared {
			t.Fatalf("SharedOff op %d ran shared", i)
		}
	}
	after = db.batchStats.snapshot()
	if after.SharedGroups != before.SharedGroups {
		t.Fatal("SharedOff still formed shared groups")
	}
	if after.FanoutQueries-before.FanoutQueries != uint64(len(queries)) {
		t.Fatalf("SharedOff fan-out count %d, want %d",
			after.FanoutQueries-before.FanoutQueries, len(queries))
	}
}

// TestBatchSharedHugeK pins that INE members with a k far beyond the object
// count still share one expansion and answer every object: the group clamps
// k before sizing its arenas, where math.MaxInt32 once ran the process out
// of memory.
func TestBatchSharedHugeK(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "huge-k", Rows: 24, Cols: 24, Seed: 19})
	db, err := Open(g, WithMethods(INE), WithObjects(DefaultCategory, gen.Uniform(g, 0.01, 20)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := clusteredQueries(db, 2)
	b := db.Batch().SharedExpansion(SharedOn)
	for _, q := range queries {
		b.AddKNN(q, math.MaxInt32, WithMethod(INE))
	}
	got, err := b.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := db.NumObjects(DefaultCategory)
	for i, r := range got {
		want, err := db.KNN(ctx, queries[i], n, WithMethod(INE))
		if err != nil || r.Err != nil {
			t.Fatal(err, r.Err)
		}
		if !r.Shared || len(r.Results) != n || !SameResults(r.Results, want) {
			t.Fatalf("member %d: shared=%v, %d results %s; want shared, all %d objects %s",
				i, r.Shared, len(r.Results), FormatResults(r.Results), n, FormatResults(want))
		}
	}
}

// TestBatchExplainGroups drives the batch planner's report: group sizes,
// leaves, decisions and reasons, consistent with what Run then does.
func TestBatchExplainGroups(t *testing.T) {
	db := sharedEquivDBs(t)[0]
	pt := db.batchPartition()
	var verts []int32
	for ni := range pt.Nodes {
		if pt.Nodes[ni].IsLeaf() && len(pt.Nodes[ni].Vertices) >= 6 {
			verts = pt.Nodes[ni].Vertices
			break
		}
	}
	b := db.Batch().SharedExpansion(SharedOn)
	for i := 0; i < 6; i++ {
		b.AddKNN(verts[i], 4, WithMethod(INE))
	}
	b.AddRange(verts[0], 500) // never grouped
	// A G-tree cluster in the same leaf: no shared expansion, so no group —
	// its members are reported as fan-out.
	for i := 0; i < 6; i++ {
		b.AddKNN(verts[i], 4, WithMethod(Gtree))
	}
	plan := b.Explain()
	if len(plan.Groups) != 1 {
		t.Fatalf("Explain groups = %+v, want one 6-member group", plan.Groups)
	}
	g := plan.Groups[0]
	if g.Size != 6 || !g.Shared || g.Method != INE || g.Reason == "" {
		t.Fatalf("group = %+v", g)
	}
	if plan.SharedQueries != 6 || plan.FanoutQueries != 7 {
		t.Fatalf("plan counts = %+v", plan)
	}
	// The auto decision cites the cost model.
	auto := db.Batch().SharedExpansion(SharedAuto)
	for i := 0; i < 6; i++ {
		auto.AddKNN(verts[i], 4, WithMethod(INE))
	}
	aplan := auto.Explain()
	if len(aplan.Groups) != 1 || aplan.Groups[0].Reason == "" {
		t.Fatalf("auto plan = %+v", aplan)
	}
	// Run agrees with the forced plan.
	got, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if got[i].Err != nil || !got[i].Shared {
			t.Fatalf("op %d: err=%v shared=%v, want shared", i, got[i].Err, got[i].Shared)
		}
	}
	for i := 6; i < len(got); i++ {
		if got[i].Err != nil || got[i].Shared {
			t.Fatalf("op %d (range or G-tree member): err=%v shared=%v, want fanned out", i, got[i].Err, got[i].Shared)
		}
	}
}

// TestBatchSharedUnderConcurrentChurn races shared batches against object
// churn on the same category: every member must answer exactly from one of
// the two possible epochs (spare object in or out) — the group pins one
// epoch for all its members, and a torn read would show as a result
// matching neither reference.
func TestBatchSharedUnderConcurrentChurn(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "shared-churn", Rows: 24, Cols: 24, Seed: 17})
	db, err := Open(g, WithMethods(INE, Gtree))
	if err != nil {
		t.Fatal(err)
	}
	const spare int32 = 0
	base := gen.Uniform(g, 0.02, 18)
	objs := base[:0]
	for _, v := range base {
		if v != spare {
			objs = append(objs, v)
		}
	}
	if err := db.RegisterObjects("churn", objs); err != nil {
		t.Fatal(err)
	}
	withSpare := knn.NewObjectSet(g, append(append([]int32(nil), objs...), spare))
	withoutSpare := knn.NewObjectSet(g, objs)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				err = db.InsertObjects("churn", []int32{spare})
			} else {
				err = db.RemoveObjects("churn", []int32{spare})
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	queries := clusteredQueries(db, 8)
	for iter := 0; iter < 40; iter++ {
		m := INE
		if iter%2 == 1 {
			m = Gtree
		}
		b := db.Batch().SharedExpansion(SharedOn)
		for _, q := range queries {
			b.AddKNN(q, 5, WithMethod(m), WithCategory("churn"))
		}
		got, err := b.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if r.Err != nil {
				t.Fatalf("iter %d op %d: %v", iter, i, r.Err)
			}
			a := knn.BruteForce(g, withSpare, queries[i], 5)
			bf := knn.BruteForce(g, withoutSpare, queries[i], 5)
			if !SameResults(r.Results, a) && !SameResults(r.Results, bf) {
				t.Fatalf("iter %d op %d (q=%d): %s matches neither epoch (%s | %s)",
					iter, i, queries[i], FormatResults(r.Results), FormatResults(a), FormatResults(bf))
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestBatchSharedAcrossCategories guards the group key: same-leaf queries
// on different categories must not share a frontier.
func TestBatchSharedAcrossCategories(t *testing.T) {
	db := sharedEquivDBs(t)[0]
	queries := clusteredQueries(db, 8)
	b := db.Batch().SharedExpansion(SharedOn)
	for i, q := range queries {
		cat := DefaultCategory
		if i%2 == 1 {
			cat = "sparse"
		}
		b.AddKNN(q, 4, WithMethod(INE), WithCategory(cat))
	}
	plan := b.Explain()
	for _, g := range plan.Groups {
		if g.Category != DefaultCategory && g.Category != "sparse" {
			t.Fatalf("unexpected group category %q", g.Category)
		}
	}
	got, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		cat := DefaultCategory
		if i%2 == 1 {
			cat = "sparse"
		}
		want, err := db.KNN(context.Background(), queries[i], 4, WithMethod(INE), WithCategory(cat))
		if err != nil {
			t.Fatal(err)
		}
		if !SameResults(r.Results, want) {
			t.Fatalf("op %d (%s): %s != %s", i, cat, FormatResults(r.Results), FormatResults(want))
		}
	}
}

// TestBatchGroupWidthCap: a batch wider than the shared frontier's width
// must split groups rather than panic, and stay exact.
func TestBatchGroupWidthCap(t *testing.T) {
	db := sharedEquivDBs(t)[1]
	pt := db.batchPartition()
	// Gather enough same-leaf queries to overflow one group (repeats are
	// fine — duplicate members are legal).
	var verts []int32
	for ni := range pt.Nodes {
		if pt.Nodes[ni].IsLeaf() && len(pt.Nodes[ni].Vertices) > len(verts) {
			verts = pt.Nodes[ni].Vertices
		}
	}
	const n = 80 // > dijkstra.MaxWidth
	b := db.Batch().SharedExpansion(SharedOn)
	for i := 0; i < n; i++ {
		b.AddKNN(verts[i%len(verts)], 3, WithMethod(INE))
	}
	plan := b.Explain()
	for _, g := range plan.Groups {
		if g.Size > 64 {
			t.Fatalf("group of %d exceeds the frontier width cap", g.Size)
		}
	}
	if len(plan.Groups) < 2 {
		t.Fatalf("80 same-leaf queries formed %d group(s), want a split", len(plan.Groups))
	}
	got, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		want, err := db.KNN(context.Background(), verts[i%len(verts)], 3, WithMethod(INE))
		if err != nil {
			t.Fatal(err)
		}
		if !SameResults(r.Results, want) {
			t.Fatalf("op %d: %s != %s", i, FormatResults(r.Results), FormatResults(want))
		}
	}
}
