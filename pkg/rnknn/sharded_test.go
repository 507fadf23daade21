package rnknn_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"rnknn/internal/gen"
	"rnknn/pkg/rnknn"
)

// shardedPair builds one DB the ordinary way and a shard set from it, and
// opens the sharded view with the same objects routed to their owning
// cells. The monolithic DB is the oracle: a sharded answer is correct iff
// it matches the monolithic one. Both serve G-tree (the default, searched
// unbounded in every cell), INE and IER-PHL (the fan's bounded searches;
// IER-PHL is what MethodAuto picks on a shard set's sparse categories).
func shardedPair(t *testing.T, g *rnknn.Graph, objs []int32, shards int) (*rnknn.DB, *rnknn.ShardedDB) {
	t.Helper()
	db, err := rnknn.Open(g,
		rnknn.WithMethods(rnknn.Gtree, rnknn.INE, rnknn.IERPHL),
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

// shardedMethods are the method choices the sharded sweeps run: the
// default, every enabled method by name, and MethodAuto.
var shardedMethods = [][]rnknn.QueryOption{
	nil,
	{rnknn.WithMethod(rnknn.INE)},
	{rnknn.WithMethod(rnknn.IERPHL)},
	{rnknn.WithMethod(rnknn.Gtree)},
	{rnknn.WithMethod(rnknn.MethodAuto)},
}

// TestShardedMatchesMonolithic is the exactness acceptance test: across
// three differently shaped networks, shard counts and object densities,
// sharded KNN (under every method choice), KNNSeq, and Range answer
// identically (up to equal-distance ties) to the monolithic DB, for query
// vertices swept across the whole network — including ones whose
// neighborhoods straddle cell boundaries — before and after a round of
// churn mirrored on both.
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
		t.Run(fmt.Sprintf("%s-%dshards", tc.spec.Name, tc.shards), func(t *testing.T) {
			g := gen.Network(tc.spec)
			objs := gen.Uniform(g, tc.density, 17)
			db, sdb := shardedPair(t, g, objs, tc.shards)
			n := g.NumVertices()
			// Sweep queries across the vertex range: the partition cells are
			// contiguous DFS-leaf ranges, so a dense sweep necessarily hits
			// vertices at and around every cell boundary.
			step := n/37 + 1
			sweep := func(phase string) {
				for q := 0; q < n; q += step {
					for _, k := range []int{1, 5, 12} {
						want, err := db.KNN(ctx, int32(q), k)
						if err != nil {
							t.Fatal(err)
						}
						for _, opts := range shardedMethods {
							got, err := sdb.KNN(ctx, int32(q), k, opts...)
							if err != nil {
								t.Fatal(err)
							}
							requireSame(t, fmt.Sprintf("%s KNN q=%d k=%d opts %v", phase, q, k, opts), got, want)
						}
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
							t.Fatalf("%s KNNSeq q=%d: distances decrease at %d: %v", phase, q, i, got)
						}
					}
					requireSame(t, fmt.Sprintf("%s KNNSeq q=%d", phase, q), got, want)
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
							t.Fatalf("%s Range q=%d r=%d: %d vs %d results", phase, q, radius, len(gc), len(wc))
						}
						for i := range wc {
							if gc[i] != wc[i] {
								t.Fatalf("%s Range q=%d r=%d: result %d: got %+v want %+v", phase, q, radius, i, gc[i], wc[i])
							}
						}
					}
				}
			}
			sweep("fresh")

			// Mid-churn: drop every third object and add a fresh scatter, on
			// both — each call's vertices span several cells.
			var gone []int32
			for i := 0; i < len(objs); i += 3 {
				gone = append(gone, objs[i])
			}
			fresh := gen.Uniform(g, tc.density/2, 99)
			for _, d := range []*rnknn.DB{db, sdb} {
				if err := d.RemoveObjects(rnknn.DefaultCategory, gone); err != nil {
					t.Fatal(err)
				}
				if err := d.InsertObjects(rnknn.DefaultCategory, fresh); err != nil {
					t.Fatal(err)
				}
			}
			sweep("churned")
		})
	}
}

// TestShardedTiesAtKthAcrossCells pins the fan's bound at the running k-th
// distance as inclusive. On a unit-weight grid network distance is the
// Manhattan distance, so the k-th distance is shared by objects in several
// cells for most queries; with at most k objects per cell every cell's
// search returns all of its objects within the bound, and the fan's answer
// must then be exactly the first k objects by (distance, vertex) — an object
// of a later cell tied with the running k-th and of lower vertex id must
// take its place, which a bound that excluded the k-th distance would miss.
func TestShardedTiesAtKthAcrossCells(t *testing.T) {
	ctx := context.Background()
	const rows, cols = 12, 12
	n := rows * cols
	x, y := make([]float64, n), make([]float64, n)
	for v := range n {
		x[v], y[v] = float64(v%cols), float64(v/cols)
	}
	b := rnknn.NewGraphBuilder(n, x, y)
	for v := int32(0); v < int32(n); v++ {
		if int(v)%cols+1 < cols {
			b.AddEdge(v, v+1, 1, 1)
		}
		if int(v)+cols < n {
			b.AddEdge(v, v+cols, 1, 1)
		}
	}
	g := b.Build("unit-grid")
	objs := gen.Uniform(g, 0.1, 5)
	db, sdb := shardedPair(t, g, objs, 4)
	perCell := make([]int, sdb.NumShards())
	for _, v := range objs {
		perCell[sdb.OwnerShard(v)]++
	}
	maxPerCell := slices.Max(perCell)
	for q := range int32(n) {
		all, err := db.Range(ctx, q, rnknn.Dist(rows+cols))
		if err != nil {
			t.Fatal(err)
		}
		all = canonical(all)
		for k := maxPerCell; k <= maxPerCell+3 && k <= len(all); k++ {
			want := all[:k]
			for _, opts := range shardedMethods {
				got, err := sdb.KNN(ctx, q, k, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(canonical(got), want) {
					t.Fatalf("q=%d k=%d opts %v (objects per cell %v):\n got %v\nwant %v", q, k, opts, perCell, canonical(got), want)
				}
			}
		}
	}
}

// TestShardedKNNSeqOpensByBound is the lazy merge's pruning contract, read
// off the per-cell Opened counters: a drained KNNSeq never opens a cell whose
// lower bound exceeds the answer's k-th distance and opens no more cells than
// KNN's fan on the same epoch; breaking after the first neighbor leaves every
// cell bounded beyond it unopened; and cancelling mid-merge ends the stream
// with ctx's error. (That the per-cell sessions all come back is checked
// where the pools are visible: TestShardedKNNSeqReleasesSessions.)
func TestShardedKNNSeqOpensByBound(t *testing.T) {
	ctx := context.Background()
	g := gen.Network(gen.NetworkSpec{Name: "shSeq", Rows: 24, Cols: 24, Seed: 13})
	_, sdb := shardedPair(t, g, gen.Uniform(g, 0.05, 17), 4)
	opened := func() []uint64 {
		shards := sdb.Stats().Shards
		out := make([]uint64, len(shards))
		for i, sh := range shards {
			out[i] = sh.Opened
		}
		return out
	}
	const k = 3
	pruned, skipped := 0, 0
	for q := int32(0); q < int32(g.NumVertices()); q += 7 {
		before := opened()
		var got []rnknn.Result
		for r, err := range sdb.KNNSeq(ctx, q, k) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, r)
		}
		afterSeq := opened()
		if _, err := sdb.KNN(ctx, q, k); err != nil {
			t.Fatal(err)
		}
		afterKNN := opened()
		if len(got) != k {
			t.Fatalf("q=%d: %d results, want %d", q, len(got), k)
		}
		var bySeq, byKNN uint64
		for i := range before {
			bySeq += afterSeq[i] - before[i]
			byKNN += afterKNN[i] - afterSeq[i]
			if sdb.ShardBound(i, q) > got[k-1].Dist {
				pruned++
				if afterSeq[i] != before[i] {
					t.Fatalf("q=%d: cell %d (bound %d) opened for a k-th distance of %d", q, i, sdb.ShardBound(i, q), got[k-1].Dist)
				}
			}
		}
		if bySeq > byKNN {
			t.Fatalf("q=%d: KNNSeq opened %d cells, KNN %d", q, bySeq, byKNN)
		}

		// shut checks that the cells bounded beyond d were not opened since
		// before was read.
		shut := func(d rnknn.Dist) {
			for i, o := range opened() {
				if sdb.ShardBound(i, q) > d {
					skipped++
					if o != before[i] {
						t.Fatalf("q=%d: cell %d (bound %d) opened though the stream stopped at distance %d", q, i, sdb.ShardBound(i, q), d)
					}
				}
			}
		}
		before = opened()
		var first rnknn.Result
		for r, err := range sdb.KNNSeq(ctx, q, k) {
			if err != nil {
				t.Fatal(err)
			}
			first = r
			break
		}
		shut(first.Dist)

		cctx, cancel := context.WithCancel(ctx)
		before = opened()
		var streamed []rnknn.Result
		var last error
		for r, err := range sdb.KNNSeq(cctx, q, k) {
			if last = err; err != nil {
				break
			}
			streamed = append(streamed, r)
			cancel()
		}
		cancel()
		if len(streamed) != 1 || !errors.Is(last, context.Canceled) {
			t.Fatalf("q=%d: cancelled after the first neighbor, stream yielded %d and ended with %v", q, len(streamed), last)
		}
		shut(streamed[0].Dist)
	}
	if pruned == 0 || skipped == 0 {
		t.Fatalf("fixture never prunes: %d cells beyond a k-th distance, %d beyond a first", pruned, skipped)
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
// one cell is queryable from anywhere — the other cells hold empty parts,
// which a query skips.
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
		// The streaming merge over one occupied cell among empty ones.
		var seq []rnknn.Result
		for r, err := range sdb.KNNSeq(ctx, q, 3, rnknn.WithCategory("corner")) {
			if err != nil {
				t.Fatal(err)
			}
			seq = append(seq, r)
		}
		requireSame(t, fmt.Sprintf("corner KNNSeq q=%d", q), seq, want)
	}
	n, err := sdb.NumObjects("corner")
	if err != nil || n != len(corner) {
		t.Fatalf("NumObjects(corner) = %d, %v", n, err)
	}
	// Insert and remove on the shard set, mirrored on the oracle.
	mid := int32(g.NumVertices() / 2)
	for _, d := range []*rnknn.DB{db, sdb} {
		if err := d.InsertObjects("corner", []int32{mid}); err != nil {
			t.Fatal(err)
		}
		if err := d.RemoveObjects("corner", corner[:1]); err != nil {
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

// TestShardedValidation pins the shard set's mutation error surface (its
// query entry points are rows of TestEntryPointConformance).
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

// TestShardedFanSeesOneEpoch is the consistency model's test: a query on a
// shard set answers from exactly one epoch of its category across all
// cells. Cells 0 and 1 each own one neighbor of q; a writer alternately
// inserts and removes the pair — one mutation touching both cells — while
// readers query through every kind of entry point. No answer may hold one of
// the pair without the other, and a stamped answer must be brute force's on
// the object set its epoch names.
func TestShardedFanSeesOneEpoch(t *testing.T) {
	const cat = "pair"
	ctx := context.Background()
	g := gen.Network(gen.NetworkSpec{Name: "shEpoch", Rows: 12, Cols: 12, Seed: 4})
	db, sdb := shardedPair(t, g, nil, 2)

	// q with neighbors a (cell 0) and b (cell 1).
	q, a, b := int32(-1), int32(-1), int32(-1)
	for v := int32(0); v < int32(g.NumVertices()) && q < 0; v++ {
		a, b = -1, -1
		targets, _ := g.Neighbors(v)
		for _, u := range targets {
			if sdb.OwnerShard(u) == 0 {
				a = u
			} else {
				b = u
			}
		}
		if a >= 0 && b >= 0 {
			q = v
		}
	}
	if q < 0 {
		t.Fatal("no vertex with neighbors in both cells")
	}
	pair := []int32{a, b}
	// The rest of the category: everything farther from q than the pair, so
	// the two nearest are the pair exactly when it is present.
	if err := db.RegisterObjects("probe", pair); err != nil {
		t.Fatal(err)
	}
	near, err := db.BruteForceKNN(q, 2, rnknn.WithCategory("probe"))
	if err != nil {
		t.Fatal(err)
	}
	var base []int32
	for _, v := range gen.Uniform(g, 0.1, 3) {
		if d, _ := db.BruteForceRange(v, near[1].Dist, rnknn.WithCategory("probe")); len(d) == 0 && v != q {
			base = append(base, v)
		}
	}
	var want [2][]rnknn.Result // by epoch parity: even without the pair, odd with
	for i, objs := range [][]int32{base, append(append([]int32(nil), base...), pair...)} {
		if err := db.RegisterObjects(cat, objs); err != nil {
			t.Fatal(err)
		}
		if want[i], err = db.BruteForceKNN(q, 2, rnknn.WithCategory(cat)); err != nil {
			t.Fatal(err)
		}
	}
	if !rnknn.SameResults(want[1], near) || rnknn.SameResults(want[0], near) {
		t.Fatalf("fixture: with the pair %v, without %v, pair alone %v", want[1], want[0], near)
	}
	if err := sdb.RegisterObjects(cat, base); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	writer := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-done:
				writer <- nil
				return
			default:
			}
			mutate := sdb.InsertObjects
			if i%2 == 1 {
				mutate = sdb.RemoveObjects
			}
			if err := mutate(cat, pair); err != nil {
				writer <- err
				return
			}
		}
	}()

	inCat := rnknn.WithCategory(cat)
	readers := map[string]func() ([]rnknn.Result, int, error){ // results, epoch parity (-1: unstamped)
		"KNN": func() ([]rnknn.Result, int, error) {
			res, err := sdb.KNN(ctx, q, 2, inCat)
			return res, -1, err
		},
		"KNNPinned": func() ([]rnknn.Result, int, error) {
			res, epoch, err := sdb.KNNPinned(ctx, q, 2, inCat, rnknn.WithMethod(rnknn.INE))
			return res, int(epoch % 2), err
		},
		"Batch": func() ([]rnknn.Result, int, error) {
			out, err := sdb.Batch().AddKNN(q, 2, inCat).Run(ctx)
			if err == nil {
				err = out[0].Err
			}
			return out[0].Results, int(out[0].Epoch % 2), err
		},
		"KNNSeq": func() ([]rnknn.Result, int, error) {
			var res []rnknn.Result
			for r, err := range sdb.KNNSeq(ctx, q, 2, inCat) {
				if err != nil {
					return nil, -1, err
				}
				res = append(res, r)
			}
			return res, -1, nil
		},
	}
	var wg sync.WaitGroup
	for name, ask := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				res, parity, err := ask()
				switch {
				case err != nil:
					t.Errorf("%s: %v", name, err)
					return
				case parity >= 0 && !rnknn.SameResults(res, want[parity]):
					t.Errorf("%s: epoch parity %d answered %v, brute force %v", name, parity, res, want[parity])
					return
				case !rnknn.SameResults(res, want[0]) && !rnknn.SameResults(res, want[1]):
					t.Errorf("%s: %v is neither epoch's answer (%v / %v): cells read at different versions", name, res, want[0], want[1])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
}

// TestShardedEpochIsTheCounter: Epoch on a shard set is the counter DB.Epoch
// documents, one for all cells.
func TestShardedEpochIsTheCounter(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "shCnt", Rows: 9, Cols: 9, Seed: 6})
	_, sdb := shardedPair(t, g, []int32{1, 2, 3}, 3)
	var everyCell []int32 // one free vertex per cell
	for v := int32(10); len(everyCell) < sdb.NumShards(); v++ {
		if sdb.OwnerShard(v) == len(everyCell) {
			everyCell = append(everyCell, v)
		}
	}
	steps := []struct {
		what   string
		mutate func(string, []int32) error
		verts  []int32
		want   uint64
	}{
		{"insert a new object", sdb.InsertObjects, []int32{5}, 1},
		{"insert it again (empty delta)", sdb.InsertObjects, []int32{5}, 1},
		{"remove an absent object (empty delta)", sdb.RemoveObjects, []int32{7}, 1},
		{"remove a present object", sdb.RemoveObjects, []int32{5}, 2},
		{"one insert touching every cell", sdb.InsertObjects, everyCell, 3},
		{"re-register the same set", sdb.RegisterObjects, []int32{1, 2, 3}, 4},
	}
	if e, err := sdb.Epoch(rnknn.DefaultCategory); err != nil || e != 0 {
		t.Fatalf("after the first registration: epoch %d, %v", e, err)
	}
	for _, st := range steps {
		if err := st.mutate(rnknn.DefaultCategory, st.verts); err != nil {
			t.Fatal(err)
		}
		if e, _ := sdb.Epoch(rnknn.DefaultCategory); e != st.want {
			t.Fatalf("%s: epoch %d, want %d", st.what, e, st.want)
		}
		if e := sdb.Stats().Epochs[rnknn.DefaultCategory]; e != st.want {
			t.Fatalf("%s: Stats epoch %d, want %d", st.what, e, st.want)
		}
	}
}

// TestShardedBatchMembersFan: a shared expansion runs over one binding, so
// on a partitioned category even a forced-shared same-leaf group runs as
// fanned singles — and answers exactly.
func TestShardedBatchMembersFan(t *testing.T) {
	ctx := context.Background()
	g := gen.Network(gen.NetworkSpec{Name: "shBat", Rows: 10, Cols: 10, Seed: 9})
	db, sdb := shardedPair(t, g, gen.Uniform(g, 0.05, 2), 3)
	b := sdb.Batch().SharedExpansion(rnknn.SharedOn)
	for q := int32(40); q < 46; q++ {
		b.AddKNN(q, 4, rnknn.WithMethod(rnknn.INE))
	}
	if p := b.Explain(); len(p.Groups) != 0 || p.SharedQueries != 0 || p.FanoutQueries != b.Len() {
		t.Fatalf("plan on a 3-cell category: %+v", p)
	}
	out, err := b.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		want, err := db.KNN(ctx, r.Query, 4)
		if err != nil || r.Err != nil {
			t.Fatal(err, r.Err)
		}
		if r.Shared {
			t.Errorf("member %d ran shared", i)
		}
		requireSame(t, fmt.Sprintf("member %d", i), r.Results, want)
	}
}

// TestOpenShardedMapsOnce: a shard set is one engine over one mapping —
// the process maps index.rnks once however many cells the manifest cuts,
// and every index comes from it.
func TestOpenShardedMapsOnce(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/maps")
	}
	g := gen.Network(gen.NetworkSpec{Name: "shMap", Rows: 10, Cols: 10, Seed: 7})
	_, sdb := shardedPair(t, g, gen.Uniform(g, 0.05, 1), 4)
	if sdb.NumShards() != 4 {
		t.Fatalf("NumShards %d", sdb.NumShards())
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	// shardedPair's TempDir is the only place this process has this file.
	mapped := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, t.Name()) && strings.HasSuffix(line, rnknn.ShardSnapshotName) {
			mapped++
		}
	}
	if mapped != 1 {
		t.Fatalf("%s mapped %d times, want once:\n%s", rnknn.ShardSnapshotName, mapped, maps)
	}
	for name, ix := range sdb.Stats().Indexes {
		if !ix.Loaded {
			t.Errorf("index %s rebuilt instead of loaded", name)
		}
	}
}

// TestOpenShardedRejectsBadManifests: what a manifest says is checked
// before it is believed — the cell table and the snapshot name before
// anything is opened, the fingerprint against the snapshot it sits beside.
func TestOpenShardedRejectsBadManifests(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "shMan", Rows: 16, Cols: 16, Seed: 3})
	db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree))
	if err != nil {
		t.Fatal(err)
	}
	good := t.TempDir()
	if err := db.SaveShardSet(good, 2); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(good, rnknn.ShardManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	cells := man["cells"].([]any)
	firstHi := cells[0].(map[string]any)["leafHi"].(float64)
	lastHi := cells[1].(map[string]any)["leafHi"].(float64)
	if lastHi < firstHi+2 {
		t.Fatalf("fixture: cells [0, %v) [%v, %v) leave no room for a gap", firstHi, firstHi, lastHi)
	}
	cell := func(lo, hi float64) map[string]any { return map[string]any{"leafLo": lo, "leafHi": hi} }

	// Another network's shard set: same shape, different weights.
	other, err := rnknn.Open(gen.Network(gen.NetworkSpec{Name: "shMan", Rows: 16, Cols: 16, Seed: 4}), rnknn.WithMethods(rnknn.Gtree))
	if err != nil {
		t.Fatal(err)
	}
	otherDir := t.TempDir()
	if err := other.SaveShardSet(otherDir, 2); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		edit    func(m map[string]any)
		snapDir string // whose index.rnks sits beside the manifest
		wantIs  error
		wantMsg string
	}{
		{name: "unedited", snapDir: good},
		{name: "beside another network's snapshot", snapDir: otherDir, wantIs: rnknn.ErrFingerprintMismatch},
		{name: "snapshot outside the set", snapDir: good, wantMsg: "not a file name",
			edit: func(m map[string]any) { m["snapshot"] = "../x.rnks" }},
		{name: "no cells", snapDir: good, wantMsg: "no cells",
			edit: func(m map[string]any) { m["cells"] = []any{} }},
		{name: "gap between cells", snapDir: good, wantMsg: "not contiguous",
			edit: func(m map[string]any) { m["cells"] = []any{cells[0], cell(firstHi+1, lastHi)} }},
		{name: "empty cell", snapDir: good, wantMsg: "not contiguous",
			edit: func(m map[string]any) { m["cells"] = []any{cells[0], cell(lastHi, lastHi)} }},
		{name: "cells past the last leaf", snapDir: good, wantMsg: "leaves",
			edit: func(m map[string]any) { m["cells"] = []any{cells[0], cells[1], cell(lastHi, lastHi+3)} }},
		{name: "cells short of the last leaf", snapDir: good, wantMsg: "leaves",
			edit: func(m map[string]any) { m["cells"] = []any{cells[0]} }},
		{name: "unknown method", snapDir: good, wantMsg: "manifest",
			edit: func(m map[string]any) { m["methods"] = []any{"Teleport"} }},
		{name: "future version", snapDir: good, wantMsg: "version",
			edit: func(m map[string]any) { m["version"] = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			if tc.edit != nil {
				tc.edit(m)
			}
			edited, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			snap, err := os.ReadFile(filepath.Join(tc.snapDir, rnknn.ShardSnapshotName))
			if err != nil {
				t.Fatal(err)
			}
			for name, data := range map[string][]byte{rnknn.ShardManifestName: edited, rnknn.ShardSnapshotName: snap} {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			sdb, err := rnknn.OpenSharded(dir)
			switch {
			case tc.wantIs == nil && tc.wantMsg == "":
				if err != nil {
					t.Fatal(err)
				}
				sdb.Close()
			case err == nil:
				sdb.Close()
				t.Fatal("opened")
			case tc.wantIs != nil && !errors.Is(err, tc.wantIs):
				t.Fatalf("got %v, want %v", err, tc.wantIs)
			case !strings.Contains(err.Error(), tc.wantMsg):
				t.Fatalf("got %v, want an error mentioning %q", err, tc.wantMsg)
			}
		})
	}
}
