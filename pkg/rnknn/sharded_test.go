package rnknn_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"rnknn/internal/gen"
	"rnknn/pkg/rnknn"
)

// shardedPair builds one DB the ordinary way and a shard set from it, and
// opens the sharded view with the same objects routed to their owning
// cells. The monolithic DB is the oracle: a sharded answer is correct iff
// it matches the monolithic one.
func shardedPair(t *testing.T, g *rnknn.Graph, objs []int32, shards int) (*rnknn.DB, *rnknn.ShardedDB) {
	t.Helper()
	db, err := rnknn.Open(g,
		rnknn.WithMethods(rnknn.Gtree, rnknn.INE),
		rnknn.WithObjects(rnknn.DefaultCategory, objs))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.SaveShardSet(dir, shards); err != nil {
		t.Fatal(err)
	}
	sdb, err := rnknn.OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	if err := sdb.RegisterObjects(rnknn.DefaultCategory, objs); err != nil {
		t.Fatal(err)
	}
	return db, sdb
}

// canonical sorts results by (distance, vertex) — both the sharded merge
// and the monolithic answer are compared in this order, since methods may
// legitimately order equal-distance neighbors differently.
func canonical(rs []rnknn.Result) []rnknn.Result {
	out := append([]rnknn.Result(nil), rs...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Vertex < out[b].Vertex
	})
	return out
}

func requireSame(t *testing.T, label string, got, want []rnknn.Result) {
	t.Helper()
	if !rnknn.SameResults(got, want) {
		t.Fatalf("%s:\n got %v\nwant %v", label, got, want)
	}
}

// TestShardedMatchesMonolithic is the exactness acceptance test: across
// three differently shaped networks and several shard counts, sharded KNN,
// KNNSeq, and Range answer byte-identically (up to equal-distance ties) to
// the monolithic DB, for query vertices swept across the whole network —
// including ones whose neighborhoods straddle shard boundaries.
func TestShardedMatchesMonolithic(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		spec    gen.NetworkSpec
		density float64
		shards  int
	}{
		{gen.NetworkSpec{Name: "shA", Rows: 10, Cols: 14, Seed: 3}, 0.05, 3},
		{gen.NetworkSpec{Name: "shB", Rows: 16, Cols: 9, Seed: 8}, 0.02, 4},
		{gen.NetworkSpec{Name: "shC", Rows: 7, Cols: 7, Seed: 21}, 0.10, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s-%dshards", tc.spec.Name, tc.shards), func(t *testing.T) {
			g := gen.Network(tc.spec)
			objs := gen.Uniform(g, tc.density, 17)
			db, sdb := shardedPair(t, g, objs, tc.shards)

			n := g.NumVertices()
			// Sweep queries across the vertex range: the partition cells are
			// contiguous DFS-leaf ranges, so a dense sweep necessarily hits
			// vertices at and around every cell boundary.
			step := n/37 + 1
			for q := 0; q < n; q += step {
				for _, k := range []int{1, 5, 12} {
					want, err := db.KNN(ctx, int32(q), k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sdb.KNN(ctx, int32(q), k)
					if err != nil {
						t.Fatal(err)
					}
					requireSame(t, fmt.Sprintf("KNN q=%d k=%d", q, k), got, want)
				}
			}

			// Streaming path: the k-way merge must deliver the same set in
			// nondecreasing order.
			for q := 0; q < n; q += step * 3 {
				k := 8
				want, err := db.KNN(ctx, int32(q), k)
				if err != nil {
					t.Fatal(err)
				}
				var got []rnknn.Result
				for r, err := range sdb.KNNSeq(ctx, int32(q), k) {
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, r)
				}
				for i := 1; i < len(got); i++ {
					if got[i].Dist < got[i-1].Dist {
						t.Fatalf("KNNSeq q=%d: distances decrease at %d: %v", q, i, got)
					}
				}
				requireSame(t, fmt.Sprintf("KNNSeq q=%d", q), got, want)
			}

			// Range: identical sets within several radii.
			for q := 0; q < n; q += step * 4 {
				for _, radius := range []rnknn.Dist{0, 500, 5000, 50000} {
					want, err := db.Range(ctx, int32(q), radius)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sdb.Range(ctx, int32(q), radius)
					if err != nil {
						t.Fatal(err)
					}
					gc, wc := canonical(got), canonical(want)
					if len(gc) != len(wc) {
						t.Fatalf("Range q=%d r=%d: %d vs %d results", q, radius, len(gc), len(wc))
					}
					for i := range wc {
						if gc[i] != wc[i] {
							t.Fatalf("Range q=%d r=%d: result %d: got %+v want %+v", q, radius, i, gc[i], wc[i])
						}
					}
				}
			}
		})
	}
}

// TestShardedKExceedsShardCounts: with k larger than any single shard's
// object count (and larger than the global count), every shard must be
// consulted and the merged answer must still match the monolithic one —
// the threshold prune may not cut off shards while the result set is
// short.
func TestShardedKExceedsShardCounts(t *testing.T) {
	ctx := context.Background()
	g := gen.Network(gen.NetworkSpec{Name: "shK", Rows: 12, Cols: 12, Seed: 5})
	// A handful of objects spread across the network: ~2 per shard.
	objs := gen.Uniform(g, 8.0/float64(g.NumVertices()), 9)
	db, sdb := shardedPair(t, g, objs, 4)

	total, err := sdb.NumObjects(rnknn.DefaultCategory)
	if err != nil {
		t.Fatal(err)
	}
	if total != len(objs) {
		t.Fatalf("NumObjects %d, want %d", total, len(objs))
	}
	for _, q := range []int32{0, int32(g.NumVertices() / 2), int32(g.NumVertices() - 1)} {
		for _, k := range []int{total - 1, total, total + 10, 100} {
			if k <= 0 {
				continue
			}
			want, err := db.KNN(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sdb.KNN(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			requireSame(t, fmt.Sprintf("q=%d k=%d", q, k), got, want)
			if len(got) != min(k, total) {
				t.Fatalf("q=%d k=%d: %d results, want %d", q, k, len(got), min(k, total))
			}
		}
	}
}

// TestShardedEmptyShardCategories: a category whose objects all live in
// one cell must still be queryable from every shard — empty subsets are
// registered everywhere, so a fanned query on an empty shard returns an
// empty stream, not ErrUnknownCategory.
func TestShardedEmptyShardCategories(t *testing.T) {
	ctx := context.Background()
	g := gen.Network(gen.NetworkSpec{Name: "shE", Rows: 10, Cols: 10, Seed: 2})
	objs := gen.Uniform(g, 0.04, 11)
	db, sdb := shardedPair(t, g, objs, 3)

	// All corner objects live near vertex 0 — most cells own none of them.
	corner := []int32{0, 1, 2}
	if err := db.RegisterObjects("corner", corner); err != nil {
		t.Fatal(err)
	}
	if err := sdb.RegisterObjects("corner", corner); err != nil {
		t.Fatal(err)
	}
	for _, q := range []int32{0, int32(g.NumVertices() - 1)} {
		want, err := db.KNN(ctx, q, 3, rnknn.WithCategory("corner"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sdb.KNN(ctx, q, 3, rnknn.WithCategory("corner"))
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, fmt.Sprintf("corner q=%d", q), got, want)
	}
	n, err := sdb.NumObjects("corner")
	if err != nil || n != len(corner) {
		t.Fatalf("NumObjects(corner) = %d, %v", n, err)
	}
	// Insert and remove through the sharded router, mirrored on the oracle.
	mid := int32(g.NumVertices() / 2)
	for _, dbs := range []interface {
		InsertObjects(string, []int32) error
	}{db, sdb} {
		if err := dbs.InsertObjects("corner", []int32{mid}); err != nil {
			t.Fatal(err)
		}
	}
	for _, dbs := range []interface {
		RemoveObjects(string, []int32) error
	}{db, sdb} {
		if err := dbs.RemoveObjects("corner", corner[:1]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := db.KNN(ctx, mid, 4, rnknn.WithCategory("corner"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sdb.KNN(ctx, mid, 4, rnknn.WithCategory("corner"))
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "corner after churn", got, want)
}

// TestShardedValidation pins the router's mutation error surface (its query
// entry points are rows of TestEntryPointConformance).
func TestShardedValidation(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "shV", Rows: 6, Cols: 6, Seed: 1})
	_, sdb := shardedPair(t, g, gen.Uniform(g, 0.1, 4), 2)
	if err := sdb.RegisterObjects("bad", []int32{int32(g.NumVertices())}); err == nil {
		t.Fatal("out-of-range object accepted")
	}
}

// TestSaveShardSetBounds: shard counts the partition cannot satisfy are
// rejected up front.
func TestSaveShardSetBounds(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "shB2", Rows: 5, Cols: 5, Seed: 1})
	db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.SaveShardSet(dir, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if err := db.SaveShardSet(dir, 1<<20); err == nil {
		t.Fatal("absurd shard count accepted")
	}
}
