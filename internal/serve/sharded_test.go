package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rnknn/internal/gen"
	"rnknn/pkg/rnknn"
)

// newShardedPair builds a monolithic DB (the oracle) and a shard set over
// the same network and objects, the latter behind a server.
func newShardedPair(t *testing.T, shards int) (*rnknn.DB, *rnknn.ShardedDB, *httptest.Server) {
	t.Helper()
	g := gen.Network(gen.NetworkSpec{Name: "shsrv", Rows: 11, Cols: 13, Seed: 5})
	objs := gen.Uniform(g, 0.04, 19)
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
	ts := httptest.NewServer(NewSharded(sdb, Config{}).Handler())
	t.Cleanup(ts.Close)
	return db, sdb, ts
}

// TestShardedFrontKNNMatchesMonolithic: answers over HTTP from a shard set
// equal the monolithic library answers, and a repeated query is served the
// merged answer from the cache.
func TestShardedFrontKNNMatchesMonolithic(t *testing.T) {
	db, _, ts := newShardedPair(t, 3)
	ctx := context.Background()
	n := db.Graph().NumVertices()
	for q := 0; q < n; q += n/11 + 1 {
		want, err := db.KNN(ctx, int32(q), 5)
		if err != nil {
			t.Fatal(err)
		}
		var resp KNNResponse
		if code := getJSON(t, fmt.Sprintf("%s/knn?q=%d&k=5", ts.URL, q), &resp); code != http.StatusOK {
			t.Fatalf("q=%d: status %d", q, code)
		}
		if !rnknn.SameResults(toRnknnResults(resp.Results), want) {
			t.Fatalf("q=%d: got %v want %v", q, resp.Results, want)
		}
		var again KNNResponse
		getJSON(t, fmt.Sprintf("%s/knn?q=%d&k=5", ts.URL, q), &again)
		if !again.Cached {
			t.Fatalf("q=%d: repeat not cached", q)
		}
	}
}

func toRnknnResults(rs []ResultJSON) []rnknn.Result {
	out := make([]rnknn.Result, len(rs))
	for i, r := range rs {
		out[i] = rnknn.Result{Vertex: r.Vertex, Dist: rnknn.Dist(r.Dist)}
	}
	return out
}

// TestShardedFrontRange mirrors the range path.
func TestShardedFrontRange(t *testing.T) {
	db, _, ts := newShardedPair(t, 2)
	want, err := db.Range(context.Background(), 30, 4000)
	if err != nil {
		t.Fatal(err)
	}
	var resp RangeResponse
	if code := getJSON(t, ts.URL+"/range?q=30&radius=4000", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !rnknn.SameResults(toRnknnResults(resp.Results), want) {
		t.Fatalf("got %v want %v", resp.Results, want)
	}
}

// TestShardedFrontObjects: a mutation through the server lands on the owning
// cell, moves the category's one epoch counter by exactly one, and a cached
// answer is served only under the epoch it was computed at — the entry from
// before the insert is unreachable after it.
func TestShardedFrontObjects(t *testing.T) {
	db, sdb, ts := newShardedPair(t, 3)
	target := int32(db.Graph().NumVertices() / 2)
	url := fmt.Sprintf("%s/knn?q=%d&k=1", ts.URL, target)
	var before, hit KNNResponse
	getJSON(t, url, &before)
	getJSON(t, url, &hit)
	if before.Cached || !hit.Cached || hit.Epoch != before.Epoch {
		t.Fatalf("before the insert: first %+v, repeat %+v", before, hit)
	}

	// Insert a new object right at the query vertex; the answer must change
	// accordingly and match the mirrored monolithic mutation.
	var or ObjectsResponse
	resp, err := http.Post(ts.URL+"/objects/insert", "application/json", strings.NewReader(fmt.Sprintf(`{"vertices":[%d]}`, target)))
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&or)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("insert status %d (%v)", resp.StatusCode, err)
	}
	if or.Epoch != before.Epoch+1 {
		t.Fatalf("insert moved epoch %d to %d, want +1", before.Epoch, or.Epoch)
	}
	if err := db.InsertObjects(rnknn.DefaultCategory, []int32{target}); err != nil {
		t.Fatal(err)
	}
	n, _ := db.NumObjects(rnknn.DefaultCategory)
	sn, err := sdb.NumObjects(rnknn.DefaultCategory)
	if err != nil || sn != n || or.NumObjects != n {
		t.Fatalf("NumObjects %d / %d vs %d (%v)", sn, or.NumObjects, n, err)
	}
	want, err := db.KNN(context.Background(), target, 1)
	if err != nil {
		t.Fatal(err)
	}
	var after KNNResponse
	if code := getJSON(t, url, &after); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if after.Cached || after.Epoch != or.Epoch {
		t.Fatalf("after the insert: %+v, want a fresh search at epoch %d", after, or.Epoch)
	}
	if !rnknn.SameResults(toRnknnResults(after.Results), want) {
		t.Fatalf("after insert: got %v want %v", after.Results, want)
	}
	if want[0].Vertex != target || want[0].Dist != 0 {
		t.Fatalf("inserted object not nearest: %v", want)
	}
	getJSON(t, url, &hit)
	if !hit.Cached || hit.Epoch != or.Epoch || !rnknn.SameResults(toRnknnResults(hit.Results), want) {
		t.Fatalf("repeat after the insert: %+v", hit)
	}
}

// TestShardedFrontBatchAndMonitor: the plan- and session-scoped endpoints
// over a 3-cell set answer what the monolithic server answers.
func TestShardedFrontBatchAndMonitor(t *testing.T) {
	db, _, ts := newShardedPair(t, 3)
	mono := httptest.NewServer(New(db, Config{}).Handler())
	defer mono.Close()

	radius := int64(4000)
	var queries []BatchQuery
	n := int32(db.Graph().NumVertices())
	for q := int32(0); q < n; q += n/7 + 1 {
		queries = append(queries,
			BatchQuery{Query: q, K: 5},
			BatchQuery{Query: q + 1, K: 5, Method: "INE"}, // same-leaf company: a shared group on the monolith
			BatchQuery{Query: q, K: 3, Method: "Gtree"},
			BatchQuery{Query: q, Radius: &radius})
	}
	queries = append(queries, BatchQuery{Query: 1, K: 2, Category: "nope"})
	got, want := postBatch(t, ts.URL, queries), postBatch(t, mono.URL, queries)
	for i := range queries {
		g, w := got.Results[i], want.Results[i]
		if g.Error != w.Error || g.Epoch != w.Epoch || !rnknn.SameResults(toRnknnResults(g.Results), toRnknnResults(w.Results)) {
			t.Errorf("member %d (%+v): got %+v, monolithic %+v", i, queries[i], g, w)
		}
	}

	monitorReplays(t, ts.URL, db, edgeWalkRoute(db, 17, 25), 4)
}

// TestShardedFrontStats: a shard set's /stats is the ordinary response —
// server, graph and db sections — plus the per-cell breakdown, under either
// name of the type.
func TestShardedFrontStats(t *testing.T) {
	_, _, ts := newShardedPair(t, 3)
	getJSON(t, ts.URL+"/knn?q=5&k=3", nil)
	var st ShardedStatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.NumShards != 3 || len(st.Shards) != 3 {
		t.Fatalf("stats shards: %d / %d", st.NumShards, len(st.Shards))
	}
	if st.Server.Requests != 1 || st.Server.CacheMisses != 1 || st.Graph.NumVertices == 0 || len(st.DB.Methods) == 0 {
		t.Fatalf("sharded /stats lacks the single-DB sections: %+v", st)
	}
	opened := uint64(0)
	totalObj := 0
	for _, sh := range st.Shards {
		opened += sh.Server.Requests
		totalObj += sh.NumObjects
	}
	if opened == 0 || opened > 3 {
		t.Fatalf("one query opened %d of 3 cells", opened)
	}
	if totalObj != st.DB.Categories[rnknn.DefaultCategory] {
		t.Fatalf("cells own %d objects, category holds %d", totalObj, st.DB.Categories[rnknn.DefaultCategory])
	}
}
