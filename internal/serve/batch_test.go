package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"rnknn/internal/gen"
	"rnknn/pkg/rnknn"
)

// postBatch posts queries to /batch and decodes the response.
func postBatch(t *testing.T, url string, queries []BatchQuery) BatchResponse {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	return br
}

// TestBatchRidesCache proves /batch members ride the epoch-keyed result
// cache: a member whose answer is already cached (by a single or an earlier
// batch) never runs a search, intra-batch duplicates collapse onto one
// execution, and a repeat of the whole batch is answered entirely from the
// cache.
func TestBatchRidesCache(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm one key through the single path.
	if code := getJSON(t, fmt.Sprintf("%s/knn?q=10&k=3", ts.URL), nil); code != 200 {
		t.Fatalf("warmup status %d", code)
	}
	queries := []BatchQuery{
		{Query: 10, K: 3}, // cache hit (warmed above)
		{Query: 20, K: 3}, // miss: leader
		{Query: 20, K: 3}, // intra-batch duplicate of the leader
		{Query: 21, K: 4}, // miss: leader
	}
	br := postBatch(t, ts.URL, queries)
	if len(br.Results) != 4 {
		t.Fatalf("got %d results", len(br.Results))
	}
	for i, q := range queries {
		want, _ := db.BruteForceKNN(q.Query, q.K)
		if br.Results[i].Error != "" {
			t.Fatalf("member %d errored: %s", i, br.Results[i].Error)
		}
		if !rnknn.SameResults(toResults(br.Results[i].Results), want) {
			t.Fatalf("member %d wrong answer", i)
		}
	}
	if !br.Results[0].Cached {
		t.Fatal("warmed member did not report a cache hit")
	}
	if br.Results[1].Cached || !br.Results[2].Cached {
		t.Fatalf("duplicate handling: leader cached=%v dup cached=%v",
			br.Results[1].Cached, br.Results[2].Cached)
	}
	st := s.Stats()
	if st.Batches != 1 || st.BatchQueries != 4 || st.BatchCacheHits != 1 {
		t.Fatalf("batch counters after first batch: %+v", st)
	}

	// The searches the batch ran are now cached: an exact repeat answers
	// every member from the cache and runs nothing.
	var before uint64
	for _, ms := range db.Stats().Methods {
		before += ms.KNNQueries
	}
	br = postBatch(t, ts.URL, queries)
	for i := range br.Results {
		if !br.Results[i].Cached {
			t.Fatalf("repeat member %d not served from cache", i)
		}
	}
	var after uint64
	for _, ms := range db.Stats().Methods {
		after += ms.KNNQueries
	}
	if after != before {
		t.Fatalf("repeat batch ran %d searches, want 0", after-before)
	}
}

// TestBatchSharedOnServer proves same-leaf members are answered by
// shared-expansion groups end to end — marked on the wire, counted in the
// server stats, and still exact — under the mode the server always runs,
// SharedAuto: the category is sparse enough (12 objects on 12.5k vertices,
// k = 10) that the planner prices one INE member above its sharing crossover.
func TestBatchSharedOnServer(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "srv-sparse", Rows: 112, Cols: 112, Seed: 3})
	db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.INE),
		rnknn.WithObjects(rnknn.DefaultCategory, gen.Uniform(g, 0.001, 11)))
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 32 consecutive vertices mid-network: by pigeonhole several land in the
	// same partition leaf, so the planner must form at least one group.
	queries := make([]BatchQuery, 32)
	for i := range queries {
		queries[i] = BatchQuery{Query: int32(g.NumVertices()/2 + i), K: 10, Method: "INE"}
	}
	br := postBatch(t, ts.URL, queries)
	shared := 0
	for i, q := range queries {
		if br.Results[i].Error != "" {
			t.Fatalf("member %d errored: %s", i, br.Results[i].Error)
		}
		want, _ := db.BruteForceKNN(q.Query, q.K)
		if !rnknn.SameResults(toResults(br.Results[i].Results), want) {
			t.Fatalf("member %d wrong answer", i)
		}
		if br.Results[i].Shared {
			shared++
		}
	}
	if shared < 2 {
		t.Fatalf("only %d members shared, want >= 2", shared)
	}
	st := s.Stats()
	if st.BatchShared != uint64(shared) {
		t.Fatalf("BatchShared counter %d, want %d", st.BatchShared, shared)
	}
	if got := db.Stats().Batch; got.SharedQueries != uint64(shared) {
		t.Fatalf("db shared-query counter %d, want %d", got.SharedQueries, shared)
	}
}

// TestBatchMemberWithoutMethodIsAuto proves a /batch member that names no
// method is planned like /knn without one: on an {INE, IER-PHL} DB over a
// sparse category the planner sends both to IER-PHL, the member's answer
// says so, and the library counts both searches there — not under INE,
// the DB's first method and Batch.AddKNN's default. A member that names a
// method still gets it.
func TestBatchMemberWithoutMethodIsAuto(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "srv-auto", Rows: 40, Cols: 40, Seed: 3})
	db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.INE, rnknn.IERPHL),
		rnknn.WithObjects(rnknn.DefaultCategory, gen.Uniform(g, 0.005, 11)))
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	count := func(method string) uint64 { return db.Stats().Methods[method].KNNQueries }

	if code := getJSON(t, ts.URL+"/knn?q=100&k=5", nil); code != 200 {
		t.Fatalf("/knn status %d", code)
	}
	if ier, ine := count("IER-PHL"), count("INE"); ier != 1 || ine != 0 {
		t.Fatalf("/knn without a method ran %d IER-PHL and %d INE searches, want 1 and 0", ier, ine)
	}
	queries := []BatchQuery{{Query: 200, K: 5}, {Query: 300, K: 5, Method: "INE"}}
	br := postBatch(t, ts.URL, queries)
	for i, want := range []string{"IER-PHL", "INE"} {
		m := br.Results[i]
		if m.Error != "" || m.Cached || m.Method != want {
			t.Fatalf("member %d (method %q): error %q, cached %v, answered by %q, want %s",
				i, queries[i].Method, m.Error, m.Cached, m.Method, want)
		}
		exact, _ := db.BruteForceKNN(queries[i].Query, queries[i].K)
		if !rnknn.SameResults(toResults(m.Results), exact) {
			t.Fatalf("member %d wrong answer", i)
		}
	}
	if ier, ine := count("IER-PHL"), count("INE"); ier != 2 || ine != 1 {
		t.Fatalf("after the batch: %d IER-PHL and %d INE searches, want 2 and 1", ier, ine)
	}
}
