package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rnknn/internal/gen"
	"rnknn/pkg/rnknn"
)

// newShardedPair builds a monolithic DB (the oracle) and a sharded DB over
// the same network and objects, served by a sharded front.
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

// TestShardedFrontKNNMatchesMonolithic: answers over HTTP through the
// sharded front equal the monolithic library answers, and a repeated
// query reports cached=true once every consulted shard has the entry.
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
		// Second identical request: every shard the fan touches now hits
		// its cache (the same shards are consulted — bounds are
		// deterministic), so the front reports cached.
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

// TestShardedFrontObjectsInvalidatePerShard: a mutation routed through the
// front advances only the owning shard's epoch, and subsequent queries see
// the new object set.
func TestShardedFrontObjects(t *testing.T) {
	db, sdb, ts := newShardedPair(t, 3)
	// Insert a new object right next to a query vertex; the front's answer
	// must change accordingly and match the mirrored monolithic mutation.
	target := int32(db.Graph().NumVertices() / 2)
	body := fmt.Sprintf(`{"vertices":[%d]}`, target)
	resp, err := http.Post(ts.URL+"/objects/insert", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	if err := db.InsertObjects(rnknn.DefaultCategory, []int32{target}); err != nil {
		t.Fatal(err)
	}
	n, _ := db.NumObjects(rnknn.DefaultCategory)
	sn, err := sdb.NumObjects(rnknn.DefaultCategory)
	if err != nil || sn != n {
		t.Fatalf("NumObjects %d vs %d (%v)", sn, n, err)
	}
	want, err := db.KNN(context.Background(), target, 1)
	if err != nil {
		t.Fatal(err)
	}
	var kr KNNResponse
	if code := getJSON(t, fmt.Sprintf("%s/knn?q=%d&k=1", ts.URL, target), &kr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !rnknn.SameResults(toRnknnResults(kr.Results), want) {
		t.Fatalf("after insert: got %v want %v", kr.Results, want)
	}
	if want[0].Vertex != target || want[0].Dist != 0 {
		t.Fatalf("inserted object not nearest: %v", want)
	}
}

// TestShardedFrontUnsupported: session- and plan-scoped endpoints answer
// 501 on the sharded front.
func TestShardedFrontUnsupported(t *testing.T) {
	_, _, ts := newShardedPair(t, 2)
	if code := getJSON(t, ts.URL+"/monitor?q=1&k=3&steps=2", nil); code != http.StatusNotImplemented {
		t.Fatalf("/monitor status %d", code)
	}
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(`{"queries":[{"query":1,"k":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("/batch status %d", resp.StatusCode)
	}
}

// TestShardedFrontStats: the stats endpoint reports every shard.
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
	totalReq := uint64(0)
	totalObj := 0
	for _, sh := range st.Shards {
		totalReq += sh.Server.Requests
		totalObj += sh.NumObjects
	}
	if totalReq == 0 {
		t.Fatal("no shard recorded the fanned request")
	}
	if totalObj == 0 {
		t.Fatal("no objects across shards")
	}
}

// TestShardedFrontSaturation: a shard with a full admission semaphore
// sheds the fanned request with 429.
func TestShardedFrontSaturation(t *testing.T) {
	_, sdb, _ := newShardedPair(t, 2)
	fs := NewSharded(sdb, Config{MaxInFlight: 1})
	ts := httptest.NewServer(fs.Handler())
	defer ts.Close()
	// Hold the only slot on every shard, then query.
	for i := 0; i < sdb.NumShards(); i++ {
		if !fs.stacks[i].adm.tryAcquire() {
			t.Fatal("slot unavailable")
		}
		defer fs.stacks[i].adm.release()
	}
	if code := getJSON(t, ts.URL+"/knn?q=5&k=3", nil); code != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d", code)
	}
}
