package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/pkg/rnknn"
)

// TestEpochInvalidationHammer is the exactness proof for the epoch-keyed
// cache: concurrent readers hammer a small (query, k) space — so most
// responses are cache hits — while one writer churns the object set through
// the HTTP mutation endpoints. Every response carries the epoch it was
// computed at; the test reconstructs the exact object set of every epoch
// and asserts each response equals the brute-force answer over precisely
// that set. A cached entry served across an epoch bump would answer with a
// different set's neighbors and fail the comparison. The writer
// additionally re-queries a hot key after every mutation and checks it
// against a fresh db.BruteForceKNN — the stale-read probe at the moment of
// invalidation. Run under -race this also exercises the shard locks and
// admission counters.
func TestEpochInvalidationHammer(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "hammer", Rows: 10, Cols: 12, Seed: 5})
	initial := gen.Uniform(g, 0.08, 13)
	db, err := rnknn.Open(g,
		rnknn.WithMethods(rnknn.INE, rnknn.Gtree),
		rnknn.WithObjects(rnknn.DefaultCategory, initial),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{MaxInFlight: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// epochSets[e] is the exact object set live at epoch e. The writer
	// records the next epoch's set *before* publishing the mutation, so any
	// epoch a response can possibly carry is already recorded.
	var mu sync.Mutex
	epochSets := map[uint64][]int32{}
	live := map[int32]bool{}
	for _, v := range initial {
		live[v] = true
	}
	snapshotLive := func() []int32 {
		out := make([]int32, 0, len(live))
		for v := range live {
			out = append(out, v)
		}
		return out
	}
	mu.Lock()
	epochSets[0] = snapshotLive()
	mu.Unlock()

	verify := func(who string, resp KNNResponse) {
		mu.Lock()
		set, ok := epochSets[resp.Epoch]
		mu.Unlock()
		if !ok {
			t.Errorf("%s: response carries unknown epoch %d", who, resp.Epoch)
			return
		}
		want := knn.BruteForce(g, knn.NewObjectSet(g, set), resp.Query, resp.K)
		if !knn.SameResults(toResults(resp.Results), want) {
			t.Errorf("%s: STALE/WRONG answer at epoch %d for q=%d k=%d: got %v want %v (cached=%v)",
				who, resp.Epoch, resp.Query, resp.K, resp.Results, knn.FormatResults(want), resp.Cached)
		}
	}

	// Small hot key space: readers repeat these constantly, so churn is
	// guaranteed to race live cache entries.
	queryVertices := []int32{3, 17, 42, 60, 81, 99}
	kValues := []int{2, 4}
	getKNN := func(q int32, k int) (KNNResponse, error) {
		resp, err := http.Get(fmt.Sprintf("%s/knn?q=%d&k=%d", ts.URL, q, k))
		if err != nil {
			return KNNResponse{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return KNNResponse{}, fmt.Errorf("status %d", resp.StatusCode)
		}
		var kr KNNResponse
		return kr, json.NewDecoder(resp.Body).Decode(&kr)
	}

	const mutations = 80
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !done.Load() {
				q := queryVertices[rng.Intn(len(queryVertices))]
				k := kValues[rng.Intn(len(kValues))]
				kr, err := getKNN(q, k)
				if err != nil {
					t.Error(err)
					return
				}
				verify(fmt.Sprintf("reader %d", r), kr)
			}
		}(r)
	}

	// The writer: toggle vertex membership through the HTTP endpoints so
	// every mutation provably changes the set (and so bumps the epoch by
	// exactly one — the precondition for pre-recording the next set).
	writerRng := rand.New(rand.NewSource(7))
	epoch := uint64(0)
	for i := 0; i < mutations; i++ {
		v := int32(writerRng.Intn(g.NumVertices()))
		endpoint := "/objects/insert"
		if live[v] {
			endpoint = "/objects/remove"
			delete(live, v)
		} else {
			live[v] = true
		}
		epoch++
		mu.Lock()
		epochSets[epoch] = snapshotLive()
		mu.Unlock()
		body, _ := json.Marshal(ObjectsRequest{Vertices: []int32{v}})
		resp, err := http.Post(ts.URL+endpoint, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var or ObjectsResponse
		if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if or.Epoch != epoch {
			t.Fatalf("mutation %d: epoch %d, want %d (membership toggle out of sync)", i, or.Epoch, epoch)
		}
		// Stale-read probe: a hot key immediately after invalidation must
		// answer from the new epoch's set, never the cached old one.
		kr, err := getKNN(queryVertices[i%len(queryVertices)], kValues[i%len(kValues)])
		if err != nil {
			t.Fatal(err)
		}
		if kr.Epoch < epoch {
			t.Fatalf("mutation %d: post-churn read answered from epoch %d < %d", i, kr.Epoch, epoch)
		}
		verify("writer probe", kr)
		if kr.Epoch == epoch {
			fresh, err := db.BruteForceKNN(kr.Query, kr.K)
			if err != nil {
				t.Fatal(err)
			}
			if !rnknn.SameResults(toResults(kr.Results), fresh) {
				t.Fatalf("mutation %d: served answer differs from fresh brute force", i)
			}
		}
	}
	done.Store(true)
	wg.Wait()

	st := s.Stats()
	if st.CacheHits == 0 {
		t.Fatal("hammer never hit the cache — the staleness property was not exercised")
	}
	if st.Shed != 0 {
		t.Fatalf("hammer shed %d requests; raise MaxInFlight", st.Shed)
	}
	t.Logf("hammer: %d requests, %d hits, %d misses, %d entries, %d epochs",
		st.Requests, st.CacheHits, st.CacheMisses, st.CacheEntries, epoch)
}

// TestRangeEpochInvalidationHammer mirrors the kNN hammer for the cached
// /range path: concurrent readers repeat a small (query, radius) space —
// mostly cache hits — while a writer churns the object set over HTTP. Each
// response's epoch stamp must reconstruct to the brute-force range answer
// over exactly that epoch's object set; a range entry served across an
// epoch bump fails the comparison.
func TestRangeEpochInvalidationHammer(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "rhammer", Rows: 10, Cols: 12, Seed: 6})
	initial := gen.Uniform(g, 0.08, 17)
	db, err := rnknn.Open(g,
		rnknn.WithMethods(rnknn.INE),
		rnknn.WithObjects(rnknn.DefaultCategory, initial),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{MaxInFlight: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var mu sync.Mutex
	epochSets := map[uint64][]int32{}
	live := map[int32]bool{}
	for _, v := range initial {
		live[v] = true
	}
	snapshotLive := func() []int32 {
		out := make([]int32, 0, len(live))
		for v := range live {
			out = append(out, v)
		}
		return out
	}
	mu.Lock()
	epochSets[0] = snapshotLive()
	mu.Unlock()

	verify := func(who string, resp RangeResponse) {
		mu.Lock()
		set, ok := epochSets[resp.Epoch]
		mu.Unlock()
		if !ok {
			t.Errorf("%s: response carries unknown epoch %d", who, resp.Epoch)
			return
		}
		want := knn.BruteForceRange(g, knn.NewObjectSet(g, set), resp.Query, graph.Dist(resp.Radius))
		if !knn.SameResults(toResults(resp.Results), want) {
			t.Errorf("%s: STALE/WRONG range answer at epoch %d for q=%d radius=%d: got %v want %v (cached=%v)",
				who, resp.Epoch, resp.Query, resp.Radius, resp.Results, knn.FormatResults(want), resp.Cached)
		}
	}

	queryVertices := []int32{3, 17, 42, 60, 81, 99}
	radii := []int64{4000, 9000}
	getRange := func(q int32, radius int64) (RangeResponse, error) {
		resp, err := http.Get(fmt.Sprintf("%s/range?q=%d&radius=%d", ts.URL, q, radius))
		if err != nil {
			return RangeResponse{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return RangeResponse{}, fmt.Errorf("status %d", resp.StatusCode)
		}
		var rr RangeResponse
		return rr, json.NewDecoder(resp.Body).Decode(&rr)
	}

	const mutations = 60
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for !done.Load() {
				q := queryVertices[rng.Intn(len(queryVertices))]
				radius := radii[rng.Intn(len(radii))]
				rr, err := getRange(q, radius)
				if err != nil {
					t.Error(err)
					return
				}
				verify(fmt.Sprintf("reader %d", r), rr)
			}
		}(r)
	}

	writerRng := rand.New(rand.NewSource(11))
	epoch := uint64(0)
	for i := 0; i < mutations; i++ {
		v := int32(writerRng.Intn(g.NumVertices()))
		endpoint := "/objects/insert"
		if live[v] {
			endpoint = "/objects/remove"
			delete(live, v)
		} else {
			live[v] = true
		}
		epoch++
		mu.Lock()
		epochSets[epoch] = snapshotLive()
		mu.Unlock()
		body, _ := json.Marshal(ObjectsRequest{Vertices: []int32{v}})
		resp, err := http.Post(ts.URL+endpoint, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var or ObjectsResponse
		if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if or.Epoch != epoch {
			t.Fatalf("mutation %d: epoch %d, want %d (membership toggle out of sync)", i, or.Epoch, epoch)
		}
		// Stale-read probe at the moment of invalidation.
		rr, err := getRange(queryVertices[i%len(queryVertices)], radii[i%len(radii)])
		if err != nil {
			t.Fatal(err)
		}
		if rr.Epoch < epoch {
			t.Fatalf("mutation %d: post-churn range read answered from epoch %d < %d", i, rr.Epoch, epoch)
		}
		verify("writer probe", rr)
	}
	done.Store(true)
	wg.Wait()

	st := s.Stats()
	if st.CacheHits == 0 {
		t.Fatal("range hammer never hit the cache — the staleness property was not exercised")
	}
	if st.Shed != 0 {
		t.Fatalf("range hammer shed %d requests; raise MaxInFlight", st.Shed)
	}
	t.Logf("range hammer: %d requests, %d hits, %d misses, %d entries, %d epochs",
		st.Requests, st.CacheHits, st.CacheMisses, st.CacheEntries, epoch)
}

// TestWeightViewServing sanity-checks the server over a travel-time view:
// the epoch key and answers remain exact under the alternate weight array.
func TestWeightViewServing(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "tt", Rows: 8, Cols: 9, Seed: 2}).View(graph.TravelTime)
	db, err := rnknn.Open(g,
		rnknn.WithMethods(rnknn.INE),
		rnknn.WithObjects(rnknn.DefaultCategory, gen.Uniform(g, 0.1, 3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var kr KNNResponse
	if code := getJSON(t, ts.URL+"/knn?q=10&k=3", &kr); code != 200 {
		t.Fatalf("status %d", code)
	}
	want, _ := db.BruteForceKNN(10, 3)
	if !rnknn.SameResults(toResults(kr.Results), want) {
		t.Fatalf("travel-time answer wrong: %v vs %v", kr.Results, rnknn.FormatResults(want))
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Graph.Weights != graph.TravelTime.String() {
		t.Fatalf("stats weights %q", st.Graph.Weights)
	}
}
