package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// perLayer are the metrics every traced run reports. None is gated; README.md
// says which end-to-end metric each should move, on which workload. Three
// sources: the fixture build, the fixed layer probes (probes.go), and the
// workload's own traced window and tape replay (counters read through
// Stats() or /stats before and after, tape.go). A counter of a layer the
// workload does not pass through reads zero.
var perLayer = []metricDef{
	// fixture
	{Name: "build.ch_s", Unit: "s", Better: "lower"},
	{Name: "build.phl_s", Unit: "s", Better: "lower"},
	{Name: "build.gtree_s", Unit: "s", Better: "lower"},
	{Name: "build.road_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.mb", Unit: "MB", Better: "lower"},
	{Name: "rnknn.open_mmap_ms", Unit: "ms", Better: "lower"},
	{Name: "rnknn.register_ms", Unit: "ms", Better: "lower"},
	// kernels
	{Name: "pqueue.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "dijkstra.settle_ns", Unit: "ns", Better: "lower"},
	{Name: "phl.dist_ns", Unit: "ns", Better: "lower"},
	{Name: "ch.dist_us", Unit: "us", Better: "lower"},
	{Name: "gtree.dist_us", Unit: "us", Better: "lower"},
	// methods (core.Session)
	{Name: "ine.sparse_us", Unit: "us", Better: "lower"},
	{Name: "ine.dense_us", Unit: "us", Better: "lower"},
	{Name: "road.sparse_us", Unit: "us", Better: "lower"},
	{Name: "road.dense_us", Unit: "us", Better: "lower"},
	{Name: "gtree.sparse_us", Unit: "us", Better: "lower"},
	{Name: "gtree.dense_us", Unit: "us", Better: "lower"},
	{Name: "ier.phl.sparse_us", Unit: "us", Better: "lower"},
	{Name: "ier.phl.dense_us", Unit: "us", Better: "lower"},
	// rnknn.DB facade, planner, objects, batch, monitor
	{Name: "rnknn.facade_self_ns", Unit: "ns", Better: "lower"},
	{Name: "rnknn.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "planner.self_ns", Unit: "ns", Better: "lower"},
	{Name: "planner.regret", Unit: "ratio", Better: "lower"},
	{Name: "objects.mutate_sparse_us", Unit: "us", Better: "lower"},
	{Name: "objects.mutate_dense_us", Unit: "us", Better: "lower"},
	{Name: "batch.shared_us", Unit: "us", Better: "lower"},
	{Name: "batch.fanout_us", Unit: "us", Better: "lower"},
	{Name: "monitor.step_ns", Unit: "ns", Better: "lower"},
	{Name: "monitor.avoided_ratio", Unit: "ratio", Better: "higher"},
	// serve, net/http, shard front
	{Name: "serve.hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.miss_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.batch_self_us", Unit: "us", Better: "lower"},
	{Name: "nethttp.self_us", Unit: "us", Better: "lower"},
	{Name: "shard.overhead_us", Unit: "us", Better: "lower"},
	// the workload's traced window: counters
	{Name: "planner.pick.INE", Unit: "ratio", Better: "higher"},
	{Name: "planner.pick.IER-PHL", Unit: "ratio", Better: "higher"},
	{Name: "planner.pick.Gtree", Unit: "ratio", Better: "higher"},
	{Name: "planner.pick.ROAD", Unit: "ratio", Better: "higher"},
	{Name: "batch.shared_ratio", Unit: "ratio", Better: "higher"},
	{Name: "batch.cached_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.evictions_per_op", Unit: "ratio", Better: "lower"},
	{Name: "serve.coalesced", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.search_share", Unit: "ratio", Better: "lower"},
	{Name: "shard.opened_per_query", Unit: "ratio", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	// the workload's tape, layer by layer
	{Name: "tape.client_us", Unit: "us", Better: "lower"},
	{Name: "tape.nethttp_self_us", Unit: "us", Better: "lower"},
	{Name: "tape.serve_self_us", Unit: "us", Better: "lower"},
	{Name: "tape.shard_self_us", Unit: "us", Better: "lower"},
	{Name: "tape.db_us", Unit: "us", Better: "lower"},
	{Name: "tape.facade_self_us", Unit: "us", Better: "lower"},
	{Name: "tape.method_us", Unit: "us", Better: "lower"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowMetrics turns the counter deltas over the traced window into the
// per-layer ratios.
func windowMetrics(before, after counters, ops, answers int, clientNanos float64, put func(name string, value float64, unit string)) {
	var knn float64
	for _, m := range fixtureMethods {
		knn += float64(after.KNNByMethod[m.String()] - before.KNNByMethod[m.String()])
	}
	for _, m := range fixtureMethods {
		put("planner.pick."+m.String(), ratio(float64(after.KNNByMethod[m.String()]-before.KNNByMethod[m.String()]), knn), "ratio")
	}
	b, a := before.Server, after.Server
	members := float64(a.BatchQueries - b.BatchQueries)
	put("batch.shared_ratio", ratio(float64(a.BatchShared-b.BatchShared), members), "ratio")
	put("batch.cached_ratio", ratio(float64(a.BatchCacheHits-b.BatchCacheHits), members), "ratio")
	hits, misses := float64(a.CacheHits-b.CacheHits), float64(a.CacheMisses-b.CacheMisses)
	put("serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("serve.evictions_per_op", ratio(float64(a.CacheEvictions-b.CacheEvictions), float64(answers)), "ratio")
	put("serve.coalesced", float64(a.Coalesced-b.Coalesced), "count")
	put("serve.shed", float64(a.Shed-b.Shed), "count")
	put("serve.search_share", ratio(float64(after.SearchNanos-before.SearchNanos), clientNanos), "ratio")
	put("shard.opened_per_query", ratio(float64(after.ShardRequests-before.ShardRequests), float64(ops)), "ratio")
}

// runTraced is the traced run of one workload: the workload's closed loop
// for half the run's seconds with counters read before and after, the tape
// replay, then the fixed layer probes. It reports every per-layer metric.
func runTraced(ctx context.Context, e *env, wl *workload, w *world, m *model, sys system, dir string, seed int64, seconds float64, rd *runDetail) (result, error) {
	res := result{Metrics: rd.Metrics}
	put := func(name string, value float64, unit string) { rd.Metrics[name] = metric{value, unit} }

	put("build.ch_s", rd.Fixture.BuildSeconds["CH"], "s")
	put("build.phl_s", rd.Fixture.BuildSeconds["PHL"], "s")
	put("build.gtree_s", rd.Fixture.BuildSeconds["Gtree"], "s")
	put("build.road_s", rd.Fixture.BuildSeconds["ROAD"], "s")
	put("snapshot.mb", float64(rd.Fixture.SnapshotBytes)/1e6, "MB")

	// The workload's own loop for half the run's seconds, exactly as the
	// untraced run drives it, with the counters read before and after.
	half := time.Duration(seconds * float64(time.Second) / 2)
	window := half / 4
	warmUp(ctx, wl, w, sys, m, seed, min(2*time.Second, half/5))
	var err error
	if rd.Before, err = sys.counters(); err != nil {
		return res, err
	}
	ls := loop{wl: wl, w: w, sys: sys, m: m, seed: seed, length: window, windows: 4}.run(ctx)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if rd.After, err = sys.counters(); err != nil {
		return res, err
	}
	tally(&ls, &res, rd)
	var reads []uint32
	var clientNanos float64
	for i := range ls.windows {
		reads = append(reads, ls.windows[i].reads...)
		rd.Windows = append(rd.Windows, ls.windows[i].ops)
	}
	for _, ns := range reads {
		clientNanos += float64(ns)
	}
	windowMetrics(rd.Before, rd.After, len(reads), ls.answers, clientNanos, put)
	put("client.samples", float64(len(reads)), "count")
	rd.ReadSamples = len(reads)
	sortU32(reads)
	rd.ReadLadderUS = ladder(reads)

	// The tape: as many operations as replay in about a second at the
	// outermost layer, every lower layer being faster.
	n := tapeMax
	p50 := percentile(reads, 50)
	if p50 > 0 {
		n = max(32, min(tapeMax, int(float64(time.Second)/p50)))
	}
	tp, err := replayTape(ctx, wl, w, m, sys, dir, seed, n, put)
	if err != nil {
		return res, err
	}
	// How far the replay's view of an operation is from the loop's: the
	// single-threaded, span-recording replay against the concurrent loop.
	put("trace.overhead_pct", 100*(ratio(tp.medianUS(layerClient)*1e3, p50)-1), "%")
	rd.TraceFile = filepath.Join(filepath.Dir(e.work), "trace-"+wl.name+".jsonl")
	if err := tp.write(rd.TraceFile); err != nil {
		return res, err
	}

	// The fixed probes, over in-process copies of every layer.
	lab, err := newLab(dir, w, seed)
	if err != nil {
		return res, err
	}
	defer lab.close()
	bin, err := e.serverBinary(ctx)
	if err != nil {
		return res, err
	}
	probeSrv, err := startServer(ctx, bin, dir, e.network, false, 1, w, nil)
	if err != nil {
		return res, err
	}
	defer probeSrv.close()
	sdb, err := openSharded(dir, w)
	if err != nil {
		return res, err
	}
	defer sdb.Close()
	lab.kernelProbes(put)
	methods := lab.methodProbes(put)
	for _, probe := range []func() error{
		func() error { return lab.facadeProbes(ctx, put) },
		func() error { return lab.objectProbes(put) },
		func() error { return lab.batchProbes(ctx, put) },
		func() error { return lab.monitorProbe(ctx, put) },
		func() error { return lab.serveProbes(ctx, probeSrv, put) },
		func() error { return lab.shardProbe(ctx, sdb, put) },
		func() error { return openProbe(dir, put) },
	} {
		if err := probe(); err != nil {
			return res, err
		}
	}

	// The paper's regime ordering (Table 5, Figures 10-11) as a sanity
	// anchor: a harness that cannot reproduce it is measuring something else.
	for _, order := range [][2]string{
		{"ier.phl.sparse_us", "gtree.sparse_us"},
		{"gtree.sparse_us", "ine.sparse_us"},
		{"ine.dense_us", "gtree.dense_us"},
	} {
		res.Attempted++
		if fast, slow := methods[order[0]], methods[order[1]]; !(fast < slow) {
			res.Failed++
			rd.note(fmt.Sprintf("regime order broken: %s %.1f >= %s %.1f", order[0], fast, order[1], slow))
		}
	}

	verify(m, ls.kept, wl.clients+1, &res, rd)
	return res, nil
}
