package rnknn

import (
	"context"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/monitor"
)

// The differential harness. A seed picks a graph (a small generated network
// or an adversarial shape, in either weight view), two object categories and
// a random sequence of mutations and queries. Every op runs on each
// topology the conformance table opens — the ordinary DB, a mapped open of
// its snapshot and a shard set — through the conformance adapters, and every
// answer is compared with brute force over a model of each category's
// object set at the epoch the answer reports. A failure names seed=N op=i;
// replay it with -run 'TestDifferential/seed=N$', or drive new seeds with
// go test -fuzz FuzzDifferential.

// diffSeeds is how many seeds TestDifferential runs, from 0: four of each
// graph shape in each weight view (see diffGraph). Under the race detector
// it runs the first eight, each shape once.
const diffSeeds = 64

func TestDifferential(t *testing.T) {
	n := int64(diffSeeds)
	if raceEnabled {
		n = 8
	}
	for seed := range n {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkSeed(t, seed) })
	}
}

// FuzzDifferential's one seed is the first TestDifferential does not run;
// without -fuzz it runs that seed alone.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(diffSeeds))
	f.Fuzz(checkSeed)
}

var diffCats = []string{"a", "b"}

// diffRun is one seed's state: the topologies under test and the model.
type diffRun struct {
	t     *testing.T
	rng   *rand.Rand
	g     *graph.Graph
	envs  []*confEnv // ordinary, mapped, shard set
	topos []string
	// model is each category's live object set and epoch.
	model map[string]*knn.ObjectSet
	epoch map[string]uint64
	where string // "seed=N op=i <op>", the prefix of every failure
	ref   diffRef
}

func checkSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	h := &diffRun{t: t, rng: rng, g: diffGraph(seed, rng), model: map[string]*knn.ObjectSet{}, epoch: map[string]uint64{}}
	n := h.g.NumVertices()
	var cats []Option
	for _, c := range diffCats {
		h.model[c] = knn.NewObjectSet(h.g, h.pick(1+rng.Intn(max(1, n/3))))
		cats = append(cats, WithObjects(c, h.model[c].Vertices()))
	}
	db, err := Open(h.g, append([]Option{WithMethods(Methods()...)}, cats...)...)
	if err != nil {
		t.Fatalf("seed=%d: %v", seed, err)
	}
	for _, topo := range []string{confMono, confMapped, confSharded} {
		h.envs = append(h.envs, &confEnv{t: t, db: reopen(t, db, topo, cats...), ref: db})
	}
	h.topos = []string{"DB", "Mapped", "ShardedDB"}
	ops := []struct {
		name string
		run  func()
	}{{"mutate", h.mutate}, {"knn", h.knnOp}, {"range", h.rangeOp}, {"seq", h.seqOp}, {"batch", h.batchOp}, {"monitor", h.monitorOp}}
	weights := []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 4, 5}
	for i := range 32 {
		op := ops[weights[rng.Intn(len(weights))]]
		h.where = fmt.Sprintf("seed=%d op=%d %s on %s (%d vertices)", seed, i, op.name, h.g.Name, n)
		op.run()
		for e, env := range h.envs {
			if !env.poolsBalanced() {
				t.Fatalf("%s: %s kept a session", h.where, h.topos[e])
			}
		}
	}
}

// diffGraph is the seed's network. Seed mod 8 picks the shape: a small
// generated grid for 0-2, else a ring, a line, a star, a dumbbell or two
// vertices. An odd seed/8 takes the travel-time view.
func diffGraph(seed int64, rng *rand.Rand) *graph.Graph {
	var g *graph.Graph
	switch s := uint64(seed); s % 8 {
	case 3:
		g = ringGraph(3 + rng.Intn(60))
	case 4:
		g = lineGraph(2 + rng.Intn(80))
	case 5:
		g = starGraph(3 + rng.Intn(40))
	case 6:
		g = dumbbellGraph(3+rng.Intn(30), 1+rng.Intn(40), rng)
	case 7:
		b := graph.NewBuilder(2, []float64{0, 10}, []float64{0, 0})
		b.AddEdge(0, 1, 12, 5)
		g = b.Build("pair")
	default:
		g = gen.Network(gen.NetworkSpec{Name: "grid", Rows: 4 + rng.Intn(9), Cols: 4 + rng.Intn(11), Seed: seed})
	}
	if s := uint64(seed); s/8%2 == 1 {
		g = g.View(graph.TravelTime)
	}
	return g
}

func (h *diffRun) pick(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(h.rng.Intn(h.g.NumVertices()))
	}
	return out
}

func (h *diffRun) cat() string { return diffCats[h.rng.Intn(len(diffCats))] }

func (h *diffRun) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s: %s", h.where, fmt.Sprintf(format, args...))
}

// mutate applies one random mutation: an insert of a few vertices, a
// removal drawn mostly from the live objects, or a bulk replacement.
func (h *diffRun) mutate() {
	c := h.cat()
	switch h.rng.Intn(5) {
	case 0, 1:
		h.apply(c, h.pick(1+h.rng.Intn(4)), nil, false)
	case 2, 3:
		vs := h.pick(h.rng.Intn(2))
		for _, v := range h.model[c].Vertices() {
			if h.rng.Intn(3) == 0 {
				vs = append(vs, v)
			}
		}
		h.apply(c, nil, vs, false)
	default:
		h.apply(c, h.pick(h.rng.Intn(h.g.NumVertices()/2+2)), nil, true)
	}
}

// apply lands one mutation on every topology and on the model, then checks
// each topology reports the model's epoch and object count: a replacement
// always advances the epoch, an insert or removal only when it changes the
// set. The model's sets are built from scratch, sharing nothing with the
// derivation under test.
func (h *diffRun) apply(c string, add, remove []int32, replace bool) {
	set := map[int32]bool{}
	for _, v := range h.model[c].Vertices() {
		set[v] = !replace
	}
	for _, v := range remove {
		set[v] = false
	}
	for _, v := range add {
		set[v] = true
	}
	var live []int32
	for v, in := range set {
		if in {
			live = append(live, v)
		}
	}
	if next := knn.NewObjectSet(h.g, live); replace || !slices.Equal(next.Vertices(), h.model[c].Vertices()) {
		h.model[c] = next
		h.epoch[c]++
	}
	for e, env := range h.envs {
		var err error
		switch {
		case replace:
			err = env.db.RegisterObjects(c, add)
		case add != nil:
			err = env.db.InsertObjects(c, add)
		default:
			err = env.db.RemoveObjects(c, remove)
		}
		epoch, err2 := env.db.Epoch(c)
		size, err3 := env.db.NumObjects(c)
		if err != nil || err2 != nil || err3 != nil || epoch != h.epoch[c] || size != h.model[c].Len() {
			h.fatalf("%s %q: epoch %d with %d objects (%v, %v, %v), model epoch %d with %d",
				h.topos[e], c, epoch, size, err, err2, err3, h.epoch[c], h.model[c].Len())
		}
	}
}

// diffRef is brute force's answer to one query over one object set.
type diffRef struct {
	q       int32
	arg     int
	isRange bool
	objs    *knn.ObjectSet
	want    []Result
}

// exact fails unless got is a correct answer over objs by knn.CheckAnswer.
// The reference is computed once for consecutive checks of one query.
func (h *diffRun) exact(what string, got []Result, q int32, arg int, isRange bool, objs *knn.ObjectSet) {
	h.t.Helper()
	if r := &h.ref; r.q != q || r.arg != arg || r.isRange != isRange || r.objs != objs {
		*r = diffRef{q: q, arg: arg, isRange: isRange, objs: objs}
		if isRange {
			r.want = knn.BruteForceRange(h.g, objs, q, Dist(arg))
		} else {
			r.want = knn.BruteForce(h.g, objs, q, min(arg, objs.Len()))
		}
	}
	if err := knn.CheckAnswer(h.g, objs, q, got, h.ref.want); err != nil {
		h.fatalf("%s q=%d arg=%d: %v", what, q, arg, err)
	}
}

// ask runs one query through every adapter of its kind with every method
// that serves it, on every topology.
func (h *diffRun) ask(c string, q int32, arg int, isRange bool) {
	methods := []Method{MethodAuto}
	for _, m := range Methods() {
		if !isRange || m.ranges() {
			methods = append(methods, m)
		}
	}
	for e, env := range h.envs {
		for _, a := range confAdapters {
			if a.isRange != isRange || a.oneCell && env.db.NumShards() > 1 {
				continue
			}
			for _, m := range methods {
				what := fmt.Sprintf("%s %s %s %q", h.topos[e], a.name, m, c)
				ans, err := a.ask(env, context.Background(), q, arg, WithCategory(c), WithMethod(m))
				if err != nil {
					h.fatalf("%s: %v", what, err)
				}
				if ans.hasEpoch && ans.epoch != h.epoch[c] {
					h.fatalf("%s: stamped epoch %d, model epoch %d", what, ans.epoch, h.epoch[c])
				}
				h.exact(what, ans.res, q, arg, isRange, h.model[c])
			}
		}
	}
}

func (h *diffRun) knnOp() { h.ask(h.cat(), h.pick(1)[0], 1+h.rng.Intn(9), false) }

// rangeOp draws its radius from a real object distance, so that objects
// tie at the radius, or else zero or past every object.
func (h *diffRun) rangeOp() {
	c, q := h.cat(), h.pick(1)[0]
	radius := Dist(0)
	near := knn.BruteForce(h.g, h.model[c], q, min(8, h.model[c].Len()))
	switch r := h.rng.Intn(6); {
	case r == 0:
		radius = math.MaxInt32
	case r > 1 && len(near) > 0:
		radius = near[h.rng.Intn(len(near))].Dist
	}
	h.ask(c, q, int(radius), true)
}

// seqOp pulls a KNNSeq partway on every topology, then either abandons the
// streams or lands a mutation (often one removing the objects the streams
// have yet to yield) and drains them: each must answer from the epoch it
// pinned.
func (h *diffRun) seqOp() {
	c, q, k := h.cat(), h.pick(1)[0], 1+h.rng.Intn(9)
	m := append(Methods(), MethodAuto)[h.rng.Intn(len(Methods())+1)]
	pinned := h.model[c]
	pulled := 1 + h.rng.Intn(k) // the first pull pins the epoch
	type stream struct {
		next func() (Result, error, bool)
		stop func()
		got  []Result
	}
	streams := make([]stream, len(h.envs))
	// pull takes up to n more results off every stream.
	pull := func(n int) {
		for e := range streams {
			s := &streams[e]
			for len(s.got) < n {
				r, err, ok := s.next()
				if err != nil {
					h.fatalf("%s KNNSeq %s: %v", h.topos[e], m, err)
				}
				if !ok {
					break
				}
				s.got = append(s.got, r)
			}
		}
	}
	for e, env := range h.envs {
		streams[e].next, streams[e].stop = iter.Pull2(env.db.KNNSeq(context.Background(), q, k, WithCategory(c), WithMethod(m)))
	}
	pull(pulled)
	if h.rng.Intn(3) > 0 {
		var rest []int32
		for _, r := range knn.BruteForce(h.g, pinned, q, min(k, pinned.Len()))[min(pulled, pinned.Len()):] {
			rest = append(rest, r.Vertex)
		}
		if h.rng.Intn(2) == 0 && len(rest) > 0 {
			h.apply(c, nil, rest, false)
		} else {
			h.mutate()
		}
		pull(math.MaxInt)
		for e, s := range streams {
			h.exact(fmt.Sprintf("%s KNNSeq %s %q pulled %d", h.topos[e], m, c, pulled), s.got, q, k, false, pinned)
		}
	}
	// Stopping an unfinished stream is the early break.
	for _, s := range streams {
		s.stop()
	}
}

// batchOp runs one mixed batch of members clustered in two partition
// leaves, across both categories, kNN and range, on INE, the planner's pick
// or another method, under a random sharing mode and worker count.
func (h *diffRun) batchOp() {
	pt := h.envs[0].db.batchPartition()
	leaves := pt.Leaves()
	cluster := slices.Concat(pt.Nodes[leaves[h.rng.Intn(len(leaves))]].Vertices, pt.Nodes[leaves[h.rng.Intn(len(leaves))]].Vertices)
	type member struct {
		q       int32
		arg     int
		isRange bool
		c       string
		m       Method
	}
	members := make([]member, 2+h.rng.Intn(14))
	for i := range members {
		mb := &members[i]
		mb.q, mb.c, mb.arg = cluster[h.rng.Intn(len(cluster))], h.cat(), 1+h.rng.Intn(8)
		mb.m = []Method{INE, INE, MethodAuto, Methods()[h.rng.Intn(int(numMethods))]}[h.rng.Intn(4)]
		switch {
		case h.rng.Intn(5) == 0:
			mb.isRange, mb.arg = true, h.rng.Intn(4000)
			if !mb.m.ranges() {
				mb.m = MethodAuto
			}
		case mb.m == INE && h.rng.Intn(8) == 0:
			mb.arg = math.MaxInt32
		}
	}
	mode, workers := []SharedMode{SharedOn, SharedAuto, SharedOff}[h.rng.Intn(3)], 1+h.rng.Intn(8)
	for e, env := range h.envs {
		b := env.db.Batch().Workers(workers).SharedExpansion(mode)
		for _, mb := range members {
			if mb.isRange {
				b.AddRange(mb.q, Dist(mb.arg), WithCategory(mb.c), WithMethod(mb.m))
			} else {
				b.AddKNN(mb.q, mb.arg, WithCategory(mb.c), WithMethod(mb.m))
			}
		}
		out, err := b.Run(context.Background())
		if err != nil {
			h.fatalf("%s batch: %v", h.topos[e], err)
		}
		for i, r := range out {
			mb := members[i]
			what := fmt.Sprintf("%s batch member %d (%s %q, mode %d, %d workers)", h.topos[e], i, mb.m, mb.c, mode, workers)
			if r.Err != nil || r.Epoch != h.epoch[mb.c] || r.Shared && (mode == SharedOff || r.Method != INE) {
				h.fatalf("%s: err %v, epoch %d (model %d), shared %v on %s", what, r.Err, r.Epoch, h.epoch[mb.c], r.Shared, r.Method)
			}
			h.exact(what, r.Results, mb.q, mb.arg, mb.isRange, h.model[mb.c])
		}
	}
}

// monitorOp walks one short route — with a repeat and a jump in it — on
// every topology in lockstep, landing a mutation partway, and replays each
// stream's events: membership must be exact at every step, distances exact
// on refresh steps and within the route's displacement since the last
// refresh otherwise.
func (h *diffRun) monitorOp() {
	c, k := h.cat(), 1+h.rng.Intn(5)
	m := append(Methods(), MethodAuto)[h.rng.Intn(len(Methods())+1)]
	route := walkRoute(h.g, h.pick(1)[0], 4+h.rng.Intn(10), h.rng)
	route = append(route, route[len(route)-1], h.pick(1)[0])
	nexts := make([]func() (MonitorUpdate, error, bool), len(h.envs))
	states := make([]map[int32]graph.Dist, len(h.envs))
	drifts := make([]graph.Dist, len(h.envs))
	for e, env := range h.envs {
		var stop func()
		nexts[e], stop = iter.Pull2(env.db.Monitor(context.Background(), route, k, WithCategory(c), WithMethod(m)))
		defer stop()
		states[e] = map[int32]graph.Dist{}
	}
	churnAt := h.rng.Intn(len(route))
	for i, v := range route {
		for e := range h.envs {
			u, err, ok := nexts[e]()
			where := fmt.Sprintf("%s %s Monitor %s %q k=%d step %d", h.where, h.topos[e], m, c, k, i)
			if !ok || err != nil || u.Step != i || u.Vertex != v || u.Epoch != h.epoch[c] {
				h.t.Fatalf("%s: update %+v (%v, %v), want vertex %d at epoch %d", where, u, ok, err, v, h.epoch[c])
			}
			if u.Refresh == MonitorRefreshNone && len(u.Events) != 0 {
				h.t.Fatalf("%s: a safe step carries events %v", where, u.Events)
			}
			if err := monitor.Apply(states[e], u.Events); err != nil {
				h.t.Fatalf("%s: %v", where, err)
			}
			if u.Refresh != MonitorRefreshNone {
				drifts[e] = 0
			} else if w, ok := h.g.EdgeWeightBetween(route[i-1], v); ok {
				drifts[e] += Dist(w)
			}
			verifyMonitorState(h.t, h.g, h.model[c].Vertices(), v, k, states[e], drifts[e], where)
		}
		if i == churnAt {
			h.mutate()
		}
	}
	for e := range h.envs {
		if _, _, ok := nexts[e](); ok {
			h.fatalf("%s Monitor yielded past the route's end", h.topos[e])
		}
	}
}

// The adversarial shapes: a pure cycle (every vertex of degree 2, the
// chain walk's extreme), a line (degree-1 ends), a star (one hub) and a
// dumbbell (two blobs joined by a long chain: remote queries).

func ringGraph(n int) *graph.Graph {
	x, y := make([]float64, n), make([]float64, n)
	for i := range n {
		a := 2 * math.Pi * float64(i) / float64(n)
		x[i], y[i] = 1000*math.Cos(a), 1000*math.Sin(a)
	}
	b := graph.NewBuilder(n, x, y)
	for i := range n {
		j := (i + 1) % n
		d := int32(math.Ceil(math.Hypot(x[i]-x[j], y[i]-y[j]))) + 1
		b.AddEdge(int32(i), int32(j), d, d)
	}
	return b.Build("ring")
}

func lineGraph(n int) *graph.Graph {
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i) * 50
	}
	b := graph.NewBuilder(n, x, y)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1), 55, 20)
	}
	return b.Build("line")
}

func starGraph(n int) *graph.Graph {
	x, y := make([]float64, n), make([]float64, n)
	for i := 1; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n-1)
		x[i], y[i] = 500*math.Cos(a), 500*math.Sin(a)
	}
	b := graph.NewBuilder(n, x, y)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i), 520, 130)
	}
	return b.Build("star")
}

func dumbbellGraph(side, chain int, rng *rand.Rand) *graph.Graph {
	n := 2*side + chain
	x, y := make([]float64, n), make([]float64, n)
	for i := range side {
		x[i], y[i] = rng.Float64()*300, rng.Float64()*300
		x[side+chain+i], y[side+chain+i] = 20000+rng.Float64()*300, rng.Float64()*300
	}
	for i := range chain {
		x[side+i], y[side+i] = 400+float64(i+1)*19000/float64(chain+1), 150
	}
	b := graph.NewBuilder(n, x, y)
	add := func(u, v int) {
		d := int32(math.Ceil(math.Hypot(x[u]-x[v], y[u]-y[v]))) + 1
		b.AddEdge(int32(u), int32(v), d, d/2+1)
	}
	// Each blob links every vertex to the next two; the chain joins them.
	for _, lo := range []int{0, side + chain} {
		for i := lo; i+1 < lo+side; i++ {
			add(i, i+1)
			if i+2 < lo+side {
				add(i, i+2)
			}
		}
	}
	for i := side - 1; i < side+chain; i++ {
		add(i, i+1)
	}
	return b.Build("dumbbell")
}
