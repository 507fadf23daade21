package rnknn

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/monitor"
)

// walkRoute builds an n-vertex route by walking the adjacency: mostly one
// edge per step, with occasional stay-puts (a stopped vehicle) and rare
// teleports (forcing the monitor's jump path).
func walkRoute(g *graph.Graph, start int32, n int, rng *rand.Rand) []int32 {
	route := make([]int32, n)
	route[0] = start
	for i := 1; i < n; i++ {
		prev := route[i-1]
		switch {
		case rng.Intn(10) == 0:
			route[i] = prev
		case rng.Intn(25) == 0:
			route[i] = int32(rng.Intn(g.NumVertices()))
		default:
			targets, _ := g.Neighbors(prev)
			if len(targets) == 0 {
				route[i] = prev
			} else {
				route[i] = targets[rng.Intn(len(targets))]
			}
		}
	}
	return route
}

// verifyMonitorState proves the replayed member set is a valid kNN answer
// at vertex v over the given object set: the members are annotated with
// their true network distances (a brute-force expansion over just the
// members) and compared tie-tolerantly against a fresh brute-force kNN over
// the full set. Each reported distance may differ from its member's true
// one by at most drift: 0 at refresh steps, where they must be exact.
func verifyMonitorState(t *testing.T, g *graph.Graph, objs []int32, v int32, k int, state map[int32]graph.Dist, drift graph.Dist, where string) {
	t.Helper()
	want := knn.BruteForce(g, knn.NewObjectSet(g, objs), v, k)
	if len(state) != len(want) {
		t.Fatalf("%s: replay holds %d members, fresh kNN has %d (%s)", where, len(state), len(want), knn.FormatResults(want))
	}
	members := make([]int32, 0, len(state))
	for m := range state {
		members = append(members, m)
	}
	annotated := knn.BruteForce(g, knn.NewObjectSet(g, members), v, len(members))
	if !knn.SameResults(annotated, want) {
		t.Fatalf("%s: replayed membership %s is not a valid kNN answer (want %s)",
			where, knn.FormatResults(annotated), knn.FormatResults(want))
	}
	for _, a := range annotated {
		if d := state[a.Vertex] - a.Dist; d > drift || -d > drift {
			t.Fatalf("%s: member %d reported at %d, true distance %d: more than the drift %d apart (want %s)",
				where, a.Vertex, state[a.Vertex], a.Dist, drift, knn.FormatResults(want))
		}
	}
}

// TestMonitorAvoidsRedundantQueries pins the subsystem's reason to exist:
// on an edge-by-edge route with no churn, most steps must be answered by
// the safe-region check alone, and the stats must account every step.
func TestMonitorAvoidsRedundantQueries(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "m-avoid", Rows: 30, Cols: 40, Seed: 73})
	// ~2.2k vertices at density 0.005: 11 objects, comfortably more than
	// k+1, so the safe gap is finite and every avoided step is earned by
	// the bound rather than by an exhausted object set.
	db, err := Open(g,
		WithMethods(INE, Gtree),
		WithObjects(DefaultCategory, gen.Uniform(g, 0.005, 74)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(75))
	// Pure edge walk: no jumps, no churn — every refresh past the first is
	// drift-driven.
	route := make([]int32, 120)
	route[0] = int32(g.NumVertices() / 2)
	for i := 1; i < len(route); i++ {
		targets, _ := g.Neighbors(route[i-1])
		route[i] = targets[rng.Intn(len(targets))]
	}
	before := db.MonitorStats()
	steps := 0
	for u, err := range db.Monitor(context.Background(), route, 4) {
		if err != nil {
			t.Fatal(err)
		}
		if u.Refresh == MonitorRefreshEpoch || u.Refresh == MonitorRefreshJump {
			t.Fatalf("step %d: unexpected %v refresh on a churn-free edge walk", u.Step, u.Refresh)
		}
		steps++
	}
	ms := db.MonitorStats()
	if steps != len(route) || ms.Steps-before.Steps != uint64(len(route)) {
		t.Fatalf("steps %d, stats delta %d, want %d", steps, ms.Steps-before.Steps, len(route))
	}
	avoided := ms.Avoided - before.Avoided
	refreshes := ms.Refreshes - before.Refreshes
	if avoided+refreshes != uint64(len(route)) {
		t.Fatalf("avoided %d + refreshes %d != steps %d", avoided, refreshes, len(route))
	}
	if ms.Started == before.Started {
		t.Fatal("Started did not advance")
	}
	if avoided*2 < uint64(len(route)) {
		t.Fatalf("only %d/%d steps avoided a search — safe-region check is not earning its keep", avoided, len(route))
	}
	if db.Stats().Monitor != ms {
		t.Fatal("Stats().Monitor diverges from MonitorStats()")
	}
}

// TestMonitorConcurrentChurn is the -race exercise: monitors replay routes
// while a live writer churns the object set concurrently. Every update is
// verified against the exact object set of the epoch it is stamped with
// (pre-recorded hammer-style before each mutation publishes).
func TestMonitorConcurrentChurn(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "m-conc", Rows: 12, Cols: 16, Seed: 79})
	initial := gen.Uniform(g, 0.05, 80)
	db, err := Open(g,
		WithMethods(INE, Gtree),
		WithObjects(DefaultCategory, initial),
	)
	if err != nil {
		t.Fatal(err)
	}

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
	epochSets[0] = snapshotLive()

	var done atomic.Bool
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(81))
		epoch := uint64(0)
		for !done.Load() {
			v := int32(rng.Intn(g.NumVertices()))
			// Record the next epoch's exact set before publishing the
			// mutation, so any epoch a monitor can stamp is already known.
			mu.Lock()
			insert := !live[v]
			if insert {
				live[v] = true
			} else {
				delete(live, v)
			}
			epoch++
			epochSets[epoch] = snapshotLive()
			mu.Unlock()
			var err error
			if insert {
				err = db.InsertObjects(DefaultCategory, []int32{v})
			} else {
				err = db.RemoveObjects(DefaultCategory, []int32{v})
			}
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	const k = 4
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			route := walkRoute(g, int32(rng.Intn(g.NumVertices())), 50, rng)
			state := map[int32]graph.Dist{}
			for u, err := range db.Monitor(context.Background(), route, k) {
				if err != nil {
					t.Errorf("monitor: %v", err)
					return
				}
				if err := monitor.Apply(state, u.Events); err != nil {
					t.Errorf("replay: %v", err)
					return
				}
				mu.Lock()
				set, ok := epochSets[u.Epoch]
				mu.Unlock()
				if !ok {
					t.Errorf("unknown epoch %d", u.Epoch)
					return
				}
				drift := graph.Inf
				if u.Refresh != MonitorRefreshNone {
					drift = 0
				}
				verifyMonitorState(t, g, set, u.Vertex, k, state, drift, "concurrent")
			}
		}(int64(90 + r))
	}
	readers.Wait()
	done.Store(true)
	writers.Wait()
}

// TestMonitorCancelReleasesSession is the pool-leak proof: monitors broken
// mid-route by the consumer and monitors cancelled mid-route by their
// context must both return their one held session — gets equals puts after
// any number of abandoned sessions.
func TestMonitorCancelReleasesSession(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "m-leak", Rows: 8, Cols: 10, Seed: 83})
	db, err := Open(g,
		WithMethods(INE, Gtree),
		WithObjects(DefaultCategory, gen.Uniform(g, 0.05, 84)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(85))
	route := walkRoute(g, 7, 30, rng)

	for i := 0; i < 50; i++ {
		n := 0
		for _, err := range db.Monitor(context.Background(), route, 3, WithMethod(Gtree)) {
			if err != nil {
				t.Fatal(err)
			}
			if n++; n == 2 {
				break // abandon mid-route
			}
		}
	}
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		steps := 0
		for _, err := range db.Monitor(ctx, route, 3, WithMethod(Gtree)) {
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				break
			}
			steps++
			cancel() // the stream must end with ctx's error, not keep going
		}
		cancel()
		if steps == 0 || steps == len(route) {
			t.Fatalf("cancelled monitor streamed %d/%d steps", steps, len(route))
		}
	}
	gets, puts := db.pools[Gtree].gets.Load(), db.pools[Gtree].puts.Load()
	if gets != 100 || puts != gets {
		t.Fatalf("session pool gets=%d puts=%d after 100 abandoned monitors; want 100/100", gets, puts)
	}
	// And the pool still serves complete routes.
	n := 0
	for _, err := range db.Monitor(context.Background(), route, 3, WithMethod(Gtree)) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(route) {
		t.Fatalf("post-leak-check monitor streamed %d/%d steps", n, len(route))
	}
}

// TestMonitorValidation: invalid input yields exactly one typed-error pair.
func TestMonitorValidation(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "m-val", Rows: 8, Cols: 8, Seed: 87})
	db, err := Open(g,
		WithMethods(INE),
		WithObjects(DefaultCategory, gen.Uniform(g, 0.1, 88)),
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		route []int32
		k     int
		opts  []QueryOption
		want  error
	}{
		{"bad k", []int32{1, 2}, 0, nil, ErrBadK},
		{"empty route", nil, 3, nil, ErrBadRoute},
		{"bad vertex", []int32{1, -4}, 3, nil, ErrBadVertex},
		{"vertex past range", []int32{1, int32(g.NumVertices())}, 3, nil, ErrBadVertex},
		{"unknown category", []int32{1, 2}, 3, []QueryOption{WithCategory("nope")}, ErrUnknownCategory},
		{"disabled method", []int32{1, 2}, 3, []QueryOption{WithMethod(ROAD)}, ErrMethodNotEnabled},
	}
	for _, tc := range cases {
		pairs := 0
		for _, err := range db.Monitor(context.Background(), tc.route, tc.k, tc.opts...) {
			pairs++
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
			}
		}
		if pairs != 1 {
			t.Fatalf("%s: %d yielded pairs, want 1", tc.name, pairs)
		}
	}
}

// TestMonitorRouteAliasing: the monitor must copy its route — a caller
// mutating the slice mid-iteration must not corrupt the stream.
func TestMonitorRouteAliasing(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "m-alias", Rows: 8, Cols: 8, Seed: 89})
	db, err := Open(g,
		WithMethods(INE),
		WithObjects(DefaultCategory, gen.Uniform(g, 0.1, 90)),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	route := walkRoute(g, 3, 20, rng)
	want := append([]int32(nil), route...)
	i := 0
	for u, err := range db.Monitor(context.Background(), route, 2) {
		if err != nil {
			t.Fatal(err)
		}
		if u.Vertex != want[i] {
			t.Fatalf("step %d follows %d, want %d (route aliased?)", i, u.Vertex, want[i])
		}
		route[i] = -1 // stomp the caller's slice mid-iteration
		i++
	}
	if i != len(want) {
		t.Fatalf("streamed %d/%d steps", i, len(want))
	}
}

// TestMonitorRouteAvoided is BenchmarkMonitorRoute's avoided gate as a
// count test: the benchmark's network (230 x 230, seed 29: 100,838
// vertices), objects (density 0.0005, seed 43: 50), route (a 512-step
// walk from the middle vertex that takes neighbour i mod degree at step
// i), k = 10 on G-tree, and bound, at least 60 % of the steps answered by
// the safe-region check alone. Opened with G-tree only it takes ~5 s and
// ~110 MB, where the benchmark's four-method churn DB takes ~12 s and
// ~200 MB. It reads 498 of 512 (0.9727), as the benchmark does; a tracker
// that never answers RefreshNone reads 0 and fails.
func TestMonitorRouteAvoided(t *testing.T) {
	if testing.Short() {
		t.Skip("builds G-tree on a 100k-vertex network")
	}
	if raceEnabled {
		t.Skip("a count, not a concurrency check: ~5 s, and ~50 s under the race detector")
	}
	g := gen.Network(gen.NetworkSpec{Name: "churnbench", Rows: 230, Cols: 230, Seed: 29})
	db, err := Open(g, WithMethods(Gtree), WithObjects(DefaultCategory, gen.Uniform(g, 0.0005, 43)))
	if err != nil {
		t.Fatal(err)
	}
	route := make([]int32, 512)
	route[0] = int32(g.NumVertices() / 2)
	for i := 1; i < len(route); i++ {
		targets, _ := g.Neighbors(route[i-1])
		route[i] = targets[i%len(targets)]
	}
	steps, avoided := 0, 0
	for u, err := range db.Monitor(context.Background(), route, 10) {
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if u.Refresh == MonitorRefreshNone {
			avoided++
		}
	}
	n, _ := db.NumObjects(DefaultCategory)
	ratio := float64(avoided) / float64(steps)
	t.Logf("%d objects on %d vertices: %d of %d steps avoided (%.4f)", n, g.NumVertices(), avoided, steps, ratio)
	if steps != len(route) || ratio < 0.6 {
		t.Errorf("the safe-region check avoided %d of %d steps (route %d), want >= 60%%", avoided, steps, len(route))
	}
}
