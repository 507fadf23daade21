package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"rnknn/internal/core"
	"rnknn/internal/dijkstra"
	"rnknn/internal/knn"
	"rnknn/internal/mapped"
	"rnknn/internal/pqueue"
	"rnknn/internal/serve"
	"rnknn/pkg/rnknn"
)

// The layer probes call each layer's public functions directly and time
// them from outside, with fixed parameters: "sparse" is k=10 on d0.001 (the
// paper's defaults), "dense" k=10 on d0.1. Their inputs come from the seed
// but not from the workload, so a probe reads the same on every workload's
// traced run.

var fixtureKinds = []core.MethodKind{core.INE, core.IERPHL, core.Gtree, core.ROAD}

// The probes' categories: one replica of each density they use.
var (
	sparseCat = cat(d001, 0)
	midCat    = cat(d01, 0)
	denseCat  = cat(d1, 0)
)

// lab holds the in-process pieces the probes and the tape replay call
// into: a mapped DB, and a core.Engine over the same snapshot for the
// layers below the DB (sessions and index kernels), which the DB keeps
// private.
type lab struct {
	w    *world
	db   *rnknn.DB
	snap *mapped.Snapshot
	eng  *core.Engine
	bind [numCats]*core.Binding // built on first use
	sess map[core.MethodKind]core.Session
	rng  *rand.Rand
}

func newLab(dir string, w *world, seed int64) (*lab, error) {
	l := &lab{w: w, rng: rand.New(rand.NewSource(seed ^ 0x6c6162)), sess: map[core.MethodKind]core.Session{}}
	lib, err := openLib(dir, w, nil)
	if err != nil {
		return nil, err
	}
	l.db = lib.db
	if l.snap, err = mapped.Open(snapshotPath(dir)); err != nil {
		l.close()
		return nil, err
	}
	g, fp, err := core.LoadGraphData(l.snap.Data, l.snap.Mapped)
	if err != nil {
		l.close()
		return nil, err
	}
	l.eng = core.New(g)
	l.eng.SeedFingerprint(fp)
	if err := l.eng.LoadIndexesData(l.snap.Data, l.snap.Mapped); err != nil {
		l.close()
		return nil, err
	}
	for _, kind := range fixtureKinds {
		if l.sess[kind], err = l.eng.NewSession(kind, l.binding(sparseCat)); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

func (l *lab) close() {
	if l.db != nil {
		l.db.Close()
	}
	if l.snap != nil {
		l.snap.Close()
	}
}

func (l *lab) vertex() int32 { return int32(l.rng.Intn(l.w.g.NumVertices())) }

func (l *lab) vertices(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = l.vertex()
	}
	return out
}

func (l *lab) binding(c catID) *core.Binding {
	if l.bind[c] == nil {
		l.bind[c] = l.eng.NewBinding(knn.NewObjectSet(l.eng.G, l.w.cats[c]), fixtureKinds)
	}
	return l.bind[c]
}

// session returns the kind's session bound to category c.
func (l *lab) session(kind core.MethodKind, c catID) core.Session {
	s := l.sess[kind]
	s.Rebind(l.binding(c))
	return s
}

// timeEach calls f(i) for i in [0,n) and returns each call's time in ns.
func timeEach(n int, f func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		f(i)
		out[i] = float64(time.Since(start))
	}
	return out
}

const blockSize = 64

// timeBlocks is timeEach for calls too short to time singly (under about
// 2 µs the clock read is a visible share): it times blocks of 64 calls and
// returns each block's time per call in ns. f sees i in [0, blocks*64).
func timeBlocks(blocks int, f func(i int)) []float64 {
	out := make([]float64, blocks)
	for b := range out {
		start := time.Now()
		for i := b * blockSize; i < (b+1)*blockSize; i++ {
			f(i)
		}
		out[b] = float64(time.Since(start)) / blockSize
	}
	return out
}

// pairedSelf is the median over calls of outer(i) minus inner(i), in ns:
// the outer layer's self time when inner is the same call one layer down.
func pairedSelf(outer, inner []float64) float64 {
	diff := make([]float64, len(outer))
	for i := range diff {
		diff[i] = outer[i] - inner[i]
	}
	return median(diff)
}

// sink keeps results alive so calls are not optimised away.
var sink int64

func (l *lab) kernelProbes(put func(name string, value float64, unit string)) {
	// pqueue: a Dijkstra-like fill and drain of the duplicate-tolerant heap.
	const heapN = 4096
	q := pqueue.NewQueue(heapN)
	keys := make([]int64, heapN)
	for i := range keys {
		keys[i] = l.rng.Int63n(1 << 30)
	}
	put("pqueue.push_pop_ns", median(timeEach(64, func(int) {
		for i, key := range keys {
			q.Push(int32(i), key)
		}
		for !q.Empty() {
			sink += q.Pop().Key
		}
	}))/heapN, "ns")

	// dijkstra: ns per settled vertex over the first 5,000 of an expansion.
	const settle = 5000
	srcs := l.vertices(32)
	r := dijkstra.NewResumable(l.eng.G, srcs[0])
	put("dijkstra.settle_ns", median(timeEach(len(srcs), func(i int) {
		r.Reset(srcs[i])
		for n := 0; n < settle; n++ {
			if _, d, ok := r.Next(); ok {
				sink += d
			}
		}
	}))/float64(min(settle, l.eng.G.NumVertices())), "ns")

	// Point-to-point distance oracles.
	const pairs = 1024
	from, to := l.vertices(pairs), l.vertices(pairs)
	phl := l.eng.PHLIndex()
	put("phl.dist_ns", median(timeBlocks(pairs/blockSize, func(i int) { sink += phl.Distance(from[i], to[i]) })), "ns")
	ch := l.eng.CHIndex().NewSearcher()
	put("ch.dist_us", median(timeEach(pairs, func(i int) { sink += ch.Distance(from[i], to[i]) }))/1e3, "us")
	gt := l.eng.GtreeIndex()
	src := gt.NewSource(from[0])
	put("gtree.dist_us", median(timeEach(pairs, func(i int) {
		src.Reset(gt, from[i])
		sink += src.DistanceTo(to[i])
	}))/1e3, "us")
}

// methodProbes times core.Session.KNNAppend per method and regime and
// returns the medians in µs by metric name.
func (l *lab) methodProbes(put func(name string, value float64, unit string)) map[string]float64 {
	out := map[string]float64{}
	qs := l.vertices(96)
	var buf []knn.Result
	for _, p := range []struct {
		prefix string
		kind   core.MethodKind
	}{{"ine", core.INE}, {"road", core.ROAD}, {"gtree", core.Gtree}, {"ier.phl", core.IERPHL}} {
		for _, regime := range []struct {
			name string
			cat  catID
		}{{"sparse", sparseCat}, {"dense", denseCat}} {
			s := l.session(p.kind, regime.cat)
			us := median(timeEach(len(qs), func(i int) { buf = s.KNNAppend(qs[i], defaultK, buf[:0]) })) / 1e3
			name := p.prefix + "." + regime.name + "_us"
			out[name] = us
			put(name, us, "us")
		}
	}
	return out
}

// facadeProbes measures what the rnknn.DB facade and the planner add on top
// of a session, on a query that is cheap (k=1, a few µs) so the difference
// is not lost in the search, and sparse, where Auto resolves to IER-PHL by
// a margin of 20x and so surely runs the method it is compared with; and
// the regret of MethodAuto over the density x k grid.
func (l *lab) facadeProbes(ctx context.Context, put func(name string, value float64, unit string)) error {
	const blocks = 128
	qs := l.vertices(blocks * blockSize)
	inCat := rnknn.WithCategory(catNames[sparseCat])
	var buf []rnknn.Result
	var err error
	viaDB := func(m rnknn.Method, i int) {
		var e error
		if buf, e = l.db.KNNAppend(ctx, qs[i], 1, buf[:0], rnknn.WithMethod(m), inCat); e != nil {
			err = e
		}
	}
	// Whatever Auto resolves this regime to is the explicit method both
	// differences are taken against.
	plan, perr := l.db.Explain(qs[0], 1, rnknn.WithMethod(rnknn.MethodAuto), inCat)
	if perr != nil {
		return perr
	}
	sess := l.session(kindOf(plan.Method), sparseCat)
	viaDB(rnknn.MethodAuto, 0) // first use checks a session out of the pool
	// The three layers take turns on each block of queries, so drift in
	// clock speed lands on all of them alike; an untimed first pass brings
	// the block's part of the graph into cache for all three.
	facade, planning := make([]float64, blocks), make([]float64, blocks)
	for b := range facade {
		block := func(f func(i int)) float64 {
			start := time.Now()
			for i := b * blockSize; i < (b+1)*blockSize; i++ {
				f(i)
			}
			return float64(time.Since(start)) / blockSize
		}
		block(func(i int) { viaDB(plan.Method, i) })
		session := block(func(i int) { buf = sess.KNNAppend(qs[i], 1, buf[:0]) })
		explicit := block(func(i int) { viaDB(plan.Method, i) })
		auto := block(func(i int) { viaDB(rnknn.MethodAuto, i) })
		facade[b], planning[b] = explicit-session, auto-explicit
	}
	put("rnknn.facade_self_ns", median(facade), "ns")
	put("planner.self_ns", median(planning), "ns")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range qs {
		viaDB(rnknn.MethodAuto, i)
	}
	runtime.ReadMemStats(&after)
	put("rnknn.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(len(qs)), "count")

	// Regret: per grid cell, Auto's median latency against the best fixed
	// method's median on the same queries; summed over the grid.
	grid := l.vertices(24)
	var autoSum, bestSum float64
	for d := range densities {
		inCat := rnknn.WithCategory(catNames[cat(d, 0)])
		for _, k := range gridKs {
			cell := func(m rnknn.Method) float64 {
				return median(timeEach(len(grid), func(i int) {
					var e error
					if buf, e = l.db.KNNAppend(ctx, grid[i], int(k), buf[:0], rnknn.WithMethod(m), inCat); e != nil {
						err = e
					}
				}))
			}
			best := cell(fixtureMethods[0])
			for _, m := range fixtureMethods[1:] {
				best = min(best, cell(m))
			}
			bestSum += best
			autoSum += cell(rnknn.MethodAuto)
		}
	}
	put("planner.regret", autoSum/bestSum, "ratio")
	return err
}

// objectProbes times one mutation (insert or remove of mutateSize
// vertices) on a sparse and on a dense category, and a bulk registration.
func (l *lab) objectProbes(put func(name string, value float64, unit string)) error {
	var err error
	for _, p := range []struct {
		name string
		cat  catID
	}{{"objects.mutate_sparse_us", sparseCat}, {"objects.mutate_dense_us", denseCat}} {
		// Vertices from outside the registered set, as stream.mutation draws
		// them: every insert adds all four and the remove leaves the set as it was.
		verts := make([][]int32, 128)
		for i := range verts {
			verts[i] = l.vertices(mutateSize)
			for j, v := range verts[i] {
				for l.w.registered(p.cat, v) {
					v = l.vertex()
				}
				verts[i][j] = v
			}
		}
		name := catNames[p.cat]
		put(p.name, median(timeEach(2*len(verts), func(i int) {
			var e error
			if i%2 == 0 {
				e = l.db.InsertObjects(name, verts[i/2])
			} else {
				e = l.db.RemoveObjects(name, verts[i/2])
			}
			if e != nil {
				err = e
			}
		}))/1e3, "us")
	}
	put("rnknn.register_ms", median(timeEach(5, func(int) {
		if e := l.db.RegisterObjects("probe.register", l.w.cats[denseCat]); e != nil {
			err = e
		}
	}))/1e6, "ms")
	return err
}

// batchProbes times Batch.Run over 64 INE members of one hot cell (INE has
// a shared-expansion path; it is also what /batch members resolve to on
// this fixture) with the planner free to share, and with sharing off.
func (l *lab) batchProbes(ctx context.Context, put func(name string, value float64, unit string)) error {
	var err error
	lo := l.w.cells[0]
	run := func(mode rnknn.SharedMode) float64 {
		return median(timeEach(8, func(int) {
			b := l.db.Batch().SharedExpansion(mode)
			for i := 0; i < 64; i++ {
				b.AddKNN(lo+int32(l.rng.Intn(int(l.w.span))), defaultK, rnknn.WithMethod(rnknn.INE), rnknn.WithCategory(catNames[sparseCat]))
			}
			if _, e := b.Run(ctx); e != nil {
				err = e
			}
		})) / 1e3
	}
	put("batch.shared_us", run(rnknn.SharedAuto), "us")
	put("batch.fanout_us", run(rnknn.SharedOff), "us")
	return err
}

// monitorProbe walks a 2,000-step random route under db.Monitor.
func (l *lab) monitorProbe(ctx context.Context, put func(name string, value float64, unit string)) error {
	const steps = 2000
	g := l.w.g
	route := make([]int32, steps)
	route[0] = l.vertex()
	for i := 1; i < steps; i++ {
		targets, _ := g.Neighbors(route[i-1])
		route[i] = targets[l.rng.Intn(len(targets))]
	}
	before := l.db.MonitorStats()
	start := time.Now()
	for _, err := range l.db.Monitor(ctx, route, defaultK, rnknn.WithMethod(rnknn.MethodAuto), rnknn.WithCategory(catNames[sparseCat])) {
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	after := l.db.MonitorStats()
	put("monitor.step_ns", float64(elapsed)/steps, "ns")
	put("monitor.avoided_ratio", float64(after.Avoided-before.Avoided)/float64(after.Steps-before.Steps), "ratio")
	return nil
}

// handlerTransport answers requests by calling an http.Handler in this
// process: the serve layer without a socket, a server goroutine or HTTP
// framing, but with the same request building and response decoding as the
// loopback client, so the difference between the two is net/http alone.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// inProcess wraps a handler as an httpSystem with no child process.
func inProcess(h http.Handler, sharded bool) *httpSystem {
	return &httpSystem{base: "http://in-process", sharded: sharded, client: &http.Client{Transport: handlerTransport{h}}}
}

// serveProbes measures the serve layer's own time per request: a cache
// hit, a miss minus the DB call under it, a batch minus Batch.Run, and what
// loopback HTTP adds to a hit. The dense category keeps the search under
// the miss small against the layer being measured.
func (l *lab) serveProbes(ctx context.Context, probeSrv *httpSystem, put func(name string, value float64, unit string)) error {
	const n = 1024
	var err error
	var r reply
	hot := &op{kind: opKNN, cat: denseCat, method: rnknn.MethodAuto, k: defaultK, q: l.w.pool[0]}
	do := func(s *httpSystem, o *op) {
		if e := s.do(ctx, o, false, &r); e != nil {
			err = e
		}
	}
	cachedSrv := inProcess(serve.New(l.db, serve.Config{}).Handler(), false)
	do(cachedSrv, hot) // prime
	hit := median(timeEach(n, func(int) { do(cachedSrv, hot) }))
	put("serve.hit_us", hit/1e3, "us")

	do(probeSrv, hot)
	loopback := median(timeEach(n, func(int) { do(probeSrv, hot) }))
	put("nethttp.self_us", (loopback-hit)/1e3, "us")

	uncached := inProcess(serve.New(l.db, serve.Config{CacheEntries: -1}).Handler(), false)
	qs := l.vertices(n)
	auto, inCat := rnknn.WithMethod(rnknn.MethodAuto), rnknn.WithCategory(catNames[denseCat])
	miss := timeEach(n, func(i int) {
		do(uncached, &op{kind: opKNN, cat: denseCat, method: rnknn.MethodAuto, k: defaultK, q: qs[i]})
	})
	pinned := timeEach(n, func(i int) {
		res, _, e := l.db.KNNPinned(ctx, qs[i], defaultK, auto, inCat)
		if e != nil {
			err = e
		}
		sink += int64(len(res))
	})
	put("serve.miss_self_us", pairedSelf(miss, pinned)/1e3, "us")

	batches := make([]op, 64)
	for i := range batches {
		batches[i] = op{kind: opBatch, cat: denseCat, k: defaultK, verts: l.vertices(batchSize)}
	}
	viaServe := timeEach(len(batches), func(i int) { do(uncached, &batches[i]) })
	direct := timeEach(len(batches), func(i int) {
		b := l.db.Batch()
		for _, v := range batches[i].verts {
			b.AddKNN(v, defaultK, inCat) // no method, as in serve's /batch
		}
		if _, e := b.Run(ctx); e != nil {
			err = e
		}
	})
	put("serve.batch_self_us", pairedSelf(viaServe, direct)/1e3, "us")
	return err
}

// shardProbe measures what the shard front adds to a query: ShardedDB.KNN
// against the monolithic DB.KNN over the same objects, MethodAuto on both
// as the HTTP front runs it.
func (l *lab) shardProbe(ctx context.Context, sdb *rnknn.ShardedDB, put func(name string, value float64, unit string)) error {
	var err error
	qs := l.vertices(512)
	auto, inCat := rnknn.WithMethod(rnknn.MethodAuto), rnknn.WithCategory(catNames[midCat])
	fanned := timeEach(len(qs), func(i int) {
		res, e := sdb.KNN(ctx, qs[i], defaultK, auto, inCat)
		if e != nil {
			err = e
		}
		sink += int64(len(res))
	})
	mono := timeEach(len(qs), func(i int) {
		res, e := l.db.KNN(ctx, qs[i], defaultK, auto, inCat)
		if e != nil {
			err = e
		}
		sink += int64(len(res))
	})
	put("shard.overhead_us", pairedSelf(fanned, mono)/1e3, "us")
	return err
}

// openSharded opens the fixture's shard set with every category registered.
func openSharded(dir string, w *world) (*rnknn.ShardedDB, error) {
	sdb, err := rnknn.OpenSharded(shardDir(dir))
	if err != nil {
		return nil, fmt.Errorf("open shard set: %w", err)
	}
	for c, verts := range w.cats {
		if err := sdb.RegisterObjects(catNames[c], verts); err != nil {
			sdb.Close()
			return nil, err
		}
	}
	return sdb, nil
}

// openProbe times the zero-copy open of the fixture snapshot.
func openProbe(dir string, put func(name string, value float64, unit string)) error {
	var err error
	put("rnknn.open_mmap_ms", median(timeEach(5, func(int) {
		db, e := rnknn.OpenSnapshotFile(snapshotPath(dir), rnknn.WithMethods(fixtureMethods...))
		if e != nil {
			err = e
			return
		}
		db.Close()
	}))/1e6, "ms")
	return err
}
