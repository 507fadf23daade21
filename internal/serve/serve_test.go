package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rnknn/internal/gen"
	"rnknn/internal/knn"
	"rnknn/pkg/rnknn"
)

// newTestDB opens a small DB the endpoint tests share the shape of.
func newTestDB(t *testing.T) *rnknn.DB {
	t.Helper()
	g := gen.Network(gen.NetworkSpec{Name: "srv", Rows: 12, Cols: 14, Seed: 3})
	db, err := rnknn.Open(g,
		rnknn.WithMethods(rnknn.INE, rnknn.Gtree),
		rnknn.WithObjects(rnknn.DefaultCategory, gen.Uniform(g, 0.05, 11)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v (body %s)", url, err, body)
		}
	}
	return resp.StatusCode
}

func toResults(rs []ResultJSON) []knn.Result {
	out := make([]knn.Result, len(rs))
	for i, r := range rs {
		out[i] = knn.Result{Vertex: r.Vertex, Dist: r.Dist}
	}
	return out
}

// TestKNNEndpoint checks the full read path: correct answers (vs the
// brute-force reference), the epoch stamp, cache behavior across repeats
// and across churn, and error mapping.
func TestKNNEndpoint(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q, k := int32(17), 5
	var r1 KNNResponse
	if code := getJSON(t, fmt.Sprintf("%s/knn?q=%d&k=%d", ts.URL, q, k), &r1); code != 200 {
		t.Fatalf("status %d", code)
	}
	want, err := db.BruteForceKNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	if !rnknn.SameResults(toResults(r1.Results), want) {
		t.Fatalf("results %v != brute force %v", r1.Results, rnknn.FormatResults(want))
	}
	if r1.Cached || r1.Epoch != 0 || r1.Query != q || r1.K != k || r1.Category != rnknn.DefaultCategory {
		t.Fatalf("first response metadata: %+v", r1)
	}

	// Identical repeat: served from the cache, same answer.
	var r2 KNNResponse
	getJSON(t, fmt.Sprintf("%s/knn?q=%d&k=%d", ts.URL, q, k), &r2)
	if !r2.Cached {
		t.Fatal("repeat was not served from cache")
	}
	if !rnknn.SameResults(toResults(r2.Results), want) {
		t.Fatal("cached answer differs")
	}
	if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache counters after repeat: %+v", st)
	}

	// Churn bumps the epoch: the very next read misses and recomputes.
	ins, _ := json.Marshal(ObjectsRequest{Vertices: []int32{q}})
	resp, err := http.Post(ts.URL+"/objects/insert", "application/json", bytes.NewReader(ins))
	if err != nil {
		t.Fatal(err)
	}
	var or ObjectsResponse
	if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if or.Epoch != 1 {
		t.Fatalf("epoch after insert: %+v", or)
	}
	var r3 KNNResponse
	getJSON(t, fmt.Sprintf("%s/knn?q=%d&k=%d", ts.URL, q, k), &r3)
	if r3.Cached {
		t.Fatal("post-churn read served a pre-churn cache entry")
	}
	if r3.Epoch != 1 {
		t.Fatalf("post-churn epoch %d, want 1", r3.Epoch)
	}
	want2, _ := db.BruteForceKNN(q, k)
	if !rnknn.SameResults(toResults(r3.Results), want2) {
		t.Fatal("post-churn answer wrong")
	}
	// The query vertex itself is now an object at distance 0.
	if len(r3.Results) == 0 || r3.Results[0].Vertex != q || r3.Results[0].Dist != 0 {
		t.Fatalf("inserted object missing from answer: %v", r3.Results)
	}

	// A fixed method answers too.
	var r4 KNNResponse
	if code := getJSON(t, fmt.Sprintf("%s/knn?q=%d&k=%d&method=Gtree", ts.URL, q, k), &r4); code != 200 {
		t.Fatalf("method=Gtree status %d", code)
	}
	if r4.Method != "Gtree" || !rnknn.SameResults(toResults(r4.Results), want2) {
		t.Fatalf("Gtree response: %+v", r4)
	}

	// Error mapping.
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/knn", http.StatusBadRequest},                    // missing q
		{"/knn?q=abc", http.StatusBadRequest},              // non-integer
		{"/knn?q=5&k=0", http.StatusBadRequest},            // ErrBadK
		{"/knn?q=999999&k=3", http.StatusBadRequest},       // ErrBadVertex
		{"/knn?q=4294967396&k=3", http.StatusBadRequest},   // not vertex 100 (2^32 + 100)
		{"/knn?q=100&k=3", http.StatusOK},                  // cached under k = 3 ...
		{"/knn?q=100&k=4294967299", http.StatusBadRequest}, // ... which k = 2^32 + 3 must not hit
		{"/range?q=4294967396&radius=100", http.StatusBadRequest},
		{"/knn?q=5&k=3&method=nope", http.StatusBadRequest},    // ErrUnknownMethod
		{"/knn?q=5&k=3&method=IER-PHL", http.StatusBadRequest}, // ErrMethodNotEnabled
		{"/knn?q=5&k=3&category=ghost", http.StatusNotFound},   // ErrUnknownCategory
		{"/range?q=5&radius=-1", http.StatusBadRequest},        // ErrBadRadius
		{"/range?q=5&radius=100&category=no", http.StatusNotFound},
	} {
		if code := getJSON(t, ts.URL+tc.path, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.path, code, tc.want)
		}
	}
}

func TestRangeAndBatchEndpoints(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := int32(40)
	var rr RangeResponse
	if code := getJSON(t, fmt.Sprintf("%s/range?q=%d&radius=30000", ts.URL, q), &rr); code != 200 {
		t.Fatalf("range status %d", code)
	}
	want, err := db.BruteForceRange(q, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if !rnknn.SameResults(toResults(rr.Results), want) {
		t.Fatalf("range results %v != %v", rr.Results, rnknn.FormatResults(want))
	}

	// Mixed batch: two kNN (one per method), a range, and a per-query
	// failure that must not sink the rest.
	radius := int64(20000)
	body, _ := json.Marshal(BatchRequest{Queries: []BatchQuery{
		{Query: 10, K: 3},
		{Query: 11, K: 2, Method: "Gtree"},
		{Query: 12, Radius: &radius},
		{Query: 999999, K: 3},
	}})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(br.Results) != 4 {
		t.Fatalf("batch returned %d results", len(br.Results))
	}
	for i, q := range []int32{10, 11, 12} {
		wantQ, _ := db.BruteForceKNN(q, []int{3, 2}[min(i, 1)])
		if i == 2 {
			wantQ, _ = db.BruteForceRange(q, radius)
		}
		if br.Results[i].Error != "" {
			t.Fatalf("batch query %d errored: %s", i, br.Results[i].Error)
		}
		if !rnknn.SameResults(toResults(br.Results[i].Results), wantQ) {
			t.Fatalf("batch query %d wrong answer", i)
		}
	}
	if br.Results[3].Error == "" {
		t.Fatal("out-of-range batch query reported no error")
	}

	// Malformed batches are whole-request 400s.
	for _, bad := range []string{
		`{"queries":[]}`,
		`{"queries":[{"query":1,"k":3,"radius":5}]}`,
		`{"queries":[{"query":1,"k":3,"method":"nope"}]}`,
		`{"queries":[{"query":1,"k":4294967299}]}`, // would share k = 3's cache key
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Oversized batch refused: one member over the limit.
	over := BatchRequest{Queries: make([]BatchQuery, maxBatch+1)}
	for i := range over.Queries {
		over.Queries[i] = BatchQuery{Query: 1, K: 1}
	}
	body, _ = json.Marshal(over)
	resp, err = http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", resp.StatusCode)
	}
}

func TestHealthzAndStats(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	getJSON(t, ts.URL+"/knn?q=5&k=3", nil)
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.Graph.NumVertices != db.Graph().NumVertices() {
		t.Fatalf("stats graph: %+v", st.Graph)
	}
	if st.Server.Requests != 1 || st.Server.MaxInFlight != defaultMaxInFlight {
		t.Fatalf("server stats: %+v", st.Server)
	}
	var totalKNN uint64
	for _, ms := range st.DB.Methods {
		totalKNN += ms.KNNQueries
	}
	if totalKNN != 1 {
		t.Fatalf("db stats report %d kNN queries, want 1", totalKNN)
	}
}

// TestConcurrentMissesIndependent holds N identical requests in flight
// behind the test gate — every one of them past its cache miss — and
// proves they are independent: each runs its own search, all answer the
// brute-force result at the same epoch, nobody waits on anybody, and the
// next request hits the entry they stored.
func TestConcurrentMissesIndependent(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{MaxInFlight: 64})
	const n = 16
	entered := make(chan struct{}, n)
	release := make(chan struct{})
	s.gate = func() { entered <- struct{}{}; <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	url := fmt.Sprintf("%s/knn?q=33&k=4", ts.URL)
	var wg sync.WaitGroup
	responses := make([]KNNResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			_ = json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}
	// All n reach the gate: none is parked behind another's search.
	for i := 0; i < n; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d identical requests reached their search", i, n)
		}
	}
	if got := s.Stats().InFlight; got != n {
		t.Fatalf("in flight at the gate: %d, want %d", got, n)
	}
	close(release)
	wg.Wait()

	want, _ := db.BruteForceKNN(33, 4)
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !rnknn.SameResults(toResults(responses[i].Results), want) {
			t.Fatalf("request %d: wrong answer %v", i, responses[i].Results)
		}
		if responses[i].Cached || responses[i].Epoch != responses[0].Epoch {
			t.Fatalf("request %d: cached=%v epoch=%d, want a search at epoch %d", i, responses[i].Cached, responses[i].Epoch, responses[0].Epoch)
		}
	}
	var totalKNN uint64
	for _, ms := range db.Stats().Methods {
		totalKNN += ms.KNNQueries
	}
	if totalKNN != n {
		t.Fatalf("%d identical concurrent misses ran %d underlying queries, want %d", n, totalKNN, n)
	}
	waitFor(t, func() bool { return s.Stats().InFlight == 0 })
	if st := s.Stats(); st.CacheMisses != n || st.Coalesced != 0 || st.CacheEntries != 1 {
		t.Fatalf("after release: %+v", st)
	}
	var next KNNResponse
	if code := getJSON(t, url, &next); code != 200 || !next.Cached || !rnknn.SameResults(toResults(next.Results), want) {
		t.Fatalf("request %d: status %d, %+v", n+1, code, next)
	}
}

// TestAdmissionSheds saturates the semaphore with gated queries and proves
// further requests are refused with 429 immediately — shed, not queued.
func TestAdmissionSheds(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{MaxInFlight: 2})
	release := make(chan struct{})
	s.gate = func() { <-release }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two distinct queries occupy both slots.
	var wg sync.WaitGroup
	for _, q := range []int{5, 6} {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			code := getJSONNoFatal(fmt.Sprintf("%s/knn?q=%d&k=3", ts.URL, q))
			if code != 200 {
				t.Errorf("gated request q=%d: status %d", q, code)
			}
		}(q)
	}
	waitFor(t, func() bool { return s.st.adm.inFlight() == 2 })

	// Every further request — including for already-cached-nothing and even
	// /range and /batch — is shed fast.
	const extra = 10
	start := time.Now()
	for i := 0; i < extra; i++ {
		if code := getJSONNoFatal(fmt.Sprintf("%s/knn?q=%d&k=3", ts.URL, 10+i)); code != http.StatusTooManyRequests {
			t.Fatalf("request %d at saturation: status %d, want 429", i, code)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shedding %d requests took %s — they queued", extra, elapsed)
	}
	if shed := s.Stats().Shed; shed != extra {
		t.Fatalf("shed counter %d, want %d", shed, extra)
	}
	close(release)
	wg.Wait()
	if st := s.Stats(); st.InFlight != 0 || st.Requests != 2 {
		t.Fatalf("after drain: %+v", st)
	}
}

// TestOversizedBodies posts bodies just over maxBodyBytes — well-formed
// JSON padded inside the value, so the decoder cannot stop early — and
// expects 413 with an ErrorResponse, and the object set untouched.
func TestOversizedBodies(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pad := strings.Repeat(" ", maxBodyBytes)
	for _, tc := range []struct{ path, body string }{
		{"/batch", `{"queries":[{"query":1,"k":1}` + pad + `]}`},
		{"/objects/insert", `{"vertices":[1` + pad + `]}`},
		{"/objects/remove", `{"vertices":[1` + pad + `]}`},
	} {
		t.Run(tc.path, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusRequestEntityTooLarge || e.Error == "" {
				t.Fatalf("status %d, error %q; want 413 with an error body", resp.StatusCode, e.Error)
			}
		})
	}
	if epoch, _ := db.Epoch(rnknn.DefaultCategory); epoch != 0 {
		t.Fatalf("a refused body moved the epoch to %d", epoch)
	}
}

func getJSONNoFatal(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		return -1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestHandlerPanicContained: a query whose handler panics answers 500 and
// counts one panic, its admission slot is released, and the server serves
// the next request.
func TestHandlerPanicContained(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{})
	var once sync.Once
	s.gate = func() { once.Do(func() { panic("query panicked") }) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/knn?q=5&k=3", nil); code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", code)
	}
	if st := s.Stats(); st.Panics != 1 || st.InFlight != 0 {
		t.Fatalf("after the panic: panics=%d in_flight=%d, want 1 and 0", st.Panics, st.InFlight)
	}
	var next KNNResponse
	if code := getJSON(t, ts.URL+"/knn?q=5&k=3", &next); code != http.StatusOK || len(next.Results) != 3 {
		t.Fatalf("next request: status %d, %d results", code, len(next.Results))
	}
	if p := s.Stats().Panics; p != 1 {
		t.Fatalf("panics=%d after a clean request, want 1", p)
	}
}

// panickyStream is a response writer whose second Flush panics: a /monitor
// stream that fails after its headers are out.
type panickyStream struct {
	*httptest.ResponseRecorder
	flushes int
}

func (w *panickyStream) Flush() {
	if w.flushes++; w.flushes == 2 {
		panic("stream failed")
	}
	w.ResponseRecorder.Flush()
}

// TestMonitorPanicEndsStream: a panic once a /monitor stream is under way
// cannot become a 500; it is counted and the stream ends, with the one 200
// status already sent and no error body appended.
func TestMonitorPanicEndsStream(t *testing.T) {
	s := New(newTestDB(t), Config{})
	w := &panickyStream{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/monitor?route=5,6,7,8&k=3", nil))
	if w.Code != http.StatusOK || strings.Contains(w.Body.String(), "internal error") {
		t.Fatalf("status %d, body %q: want the 200 stream, ended", w.Code, w.Body.String())
	}
	if n := strings.Count(w.Body.String(), "event: step"); n != 2 {
		t.Fatalf("%d step events, want 2 (the second flush panicked)", n)
	}
	if st := s.Stats(); st.Panics != 1 || st.InFlight != 0 {
		t.Fatalf("panics=%d in_flight=%d, want 1 and 0", st.Panics, st.InFlight)
	}
}
