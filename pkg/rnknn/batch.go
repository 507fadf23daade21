package rnknn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rnknn/internal/core"
	"rnknn/internal/dijkstra"
	"rnknn/internal/knn"
	"rnknn/internal/planner"
)

// Batch collects kNN and range queries and executes them together. Run
// first groups the kNN queries that resolve to INE by (object category,
// partition leaf): queries clustered in one leaf cell of the road network
// overlap heavily in search region, and a group of them runs as ONE shared
// expansion — INE's multi-source frontier, which pays the graph traversal
// once for the whole group while preserving each member's exact answer.
// Whether a group shares or fans out is decided by the planner's cost model
// (SharedAuto, the default): sharing wins when individual queries are
// expensive (sparse objects, large k), and loses when they are cheap.
// Everything else — range queries (on INE or the IER family, the planner's
// pick when no method is named), scattered queries, every method but
// INE — fans across a bounded worker pool, and each worker checks out
// at most one pooled session per method for its whole share of the batch,
// so the per-query pool round-trip is amortized away either way.
//
//	results, err := db.Batch().
//		AddKNN(q1, 10).
//		AddKNN(q2, 5, rnknn.WithMethod(rnknn.MethodAuto)).
//		AddRange(q3, 5000, rnknn.WithCategory("fuel")).
//		Run(ctx)
//
// A Batch is built and run from one goroutine (Run itself fans out
// internally); create one Batch per goroutine rather than sharing. Run may
// be called again to re-execute the same queries.
type Batch struct {
	db      *DB
	workers int
	shared  SharedMode
	ops     []query
}

// SharedMode controls the shared-expansion grouping decision.
type SharedMode int

const (
	// SharedAuto (the default) lets the planner's cost model decide per
	// group whether sharing beats fanning out.
	SharedAuto SharedMode = iota
	// SharedOn forces every eligible group (≥2 same-leaf queries on INE)
	// through the shared path.
	SharedOn
	// SharedOff disables sharing: every query fans out individually.
	SharedOff
)

// BatchResult is the outcome of one query in a batch, at the same index
// Add* placed it.
type BatchResult struct {
	// Query echoes the query vertex.
	Query int32
	// Method is the concrete method that answered: the named one, or the
	// planner's pick for MethodAuto and for a range query naming none (INE
	// or the IER family). Meaningless when Err is non-nil.
	Method Method
	// Results is the query's answer, in nondecreasing distance order.
	Results []Result
	// Err is this query's error — validation errors and cancellation land
	// here per query, never as a panic, so one bad query cannot sink the
	// batch.
	Err error
	// Latency is this query's execution time (zero when it never ran). For
	// a query answered by a shared group it is the group's elapsed time
	// divided by the group size — the amortized cost sharing exists for.
	Latency time.Duration
	// Shared reports that a shared-expansion group answered this query.
	Shared bool
	// Epoch is the category epoch the answer was computed from (see
	// DB.Epoch) — the exact object-set version, so callers can cache the
	// answer with epoch-keyed invalidation. Left zero when Err is non-nil
	// (note a never-mutated category's epoch is itself 0).
	Epoch uint64
}

// Batch starts an empty batch bound to the DB.
func (db *DB) Batch() *Batch { return &Batch{db: db} }

// Workers bounds the worker pool; n <= 0 (the default) means GOMAXPROCS.
// The effective pool is never larger than the number of work units.
func (b *Batch) Workers(n int) *Batch {
	b.workers = n
	return b
}

// SharedExpansion sets the grouping mode (default SharedAuto), returning b
// for chaining.
func (b *Batch) SharedExpansion(m SharedMode) *Batch {
	b.shared = m
	return b
}

// AddKNN appends a kNN query with the same options KNN accepts, returning
// b for chaining.
func (b *Batch) AddKNN(q int32, k int, opts ...QueryOption) *Batch {
	b.ops = append(b.ops, b.db.knnQuery(q, k, opts))
	return b
}

// AddRange appends a range query with the same options Range accepts,
// returning b for chaining.
func (b *Batch) AddRange(q int32, radius Dist, opts ...QueryOption) *Batch {
	b.ops = append(b.ops, b.db.rangeQuery(q, radius, opts))
	return b
}

// Len returns the number of queries added so far.
func (b *Batch) Len() int { return len(b.ops) }

// BatchGroup describes one same-leaf cluster the grouping planner found,
// and its execution decision.
type BatchGroup struct {
	// Method is the resolved method the group's members share: INE, the one
	// method with a shared expansion.
	Method Method
	// Category is the members' object category.
	Category string
	// Leaf is the partition leaf the members cluster in.
	Leaf int32
	// Size is the number of member queries.
	Size int
	// Shared reports the decision: one shared expansion (true) or
	// individual fan-out (false).
	Shared bool
	// Reason is the planner's one-line rationale for the decision.
	Reason string
}

// BatchPlan is Batch.Explain's report: how Run would execute the batch.
type BatchPlan struct {
	// Groups lists the same-leaf clusters considered for sharing, in first-
	// query order, each with its decision and rationale.
	Groups []BatchGroup
	// SharedQueries counts queries that would run inside shared groups.
	SharedQueries int
	// FanoutQueries counts queries that would fan out individually (range
	// queries, every method but INE, scattered or below-crossover groups).
	FanoutQueries int
}

// Explain reports how Run would execute the batch — the grouping planner's
// clusters and per-group shared-vs-fanout decisions — without running any
// query. Like DB.Explain it depends on the queries and the live object
// counts, never on what ran before.
func (b *Batch) Explain() BatchPlan {
	_, units, singles := b.db.planBatch(context.Background(), b.ops, b.shared)
	p := BatchPlan{FanoutQueries: len(singles)}
	for _, u := range units {
		reason := u.choice.Reason()
		if b.shared == SharedOn && len(u.ops) >= 2 {
			reason = fmt.Sprintf("shared expansion: forced by SharedOn (%d members)", len(u.ops))
		}
		p.Groups = append(p.Groups, BatchGroup{
			Method: INE, Category: u.cat, Leaf: u.leaf,
			Size: len(u.ops), Shared: u.sharedRun, Reason: reason,
		})
		if u.sharedRun {
			p.SharedQueries += len(u.ops)
		} else {
			p.FanoutQueries += len(u.ops)
		}
	}
	return p
}

// opPlan is one batch query as prepare left it: the pinned epoch and the
// concrete method, or the error the query will report.
type opPlan struct {
	ep  *epoch
	m   Method
	err error
}

// planUnit is one same-leaf cluster of INE queries with its execution
// decision and the category epoch it is pinned to.
type planUnit struct {
	ops       []int // indices into Batch.ops
	cat       string
	leaf      int32
	ep        *epoch
	maxK      int
	sharedRun bool
	// choice is the planner's share-vs-fanout decision (its zero value, a
	// too-small group's fan-out, when the planner was not asked).
	choice planner.BatchChoice
}

// groupKey identifies one shareable cluster (of INE members).
type groupKey struct {
	cat  string
	leaf int32
}

// planBatch prepares every query once — the plan a worker later runs is the
// one made here, epoch pin included — and is the grouping planner: it
// buckets group-eligible kNN queries — those resolved to INE, the one method
// with a shared expansion — by (category, partition leaf), caps each bucket at
// the shared frontier's width, and decides shared-vs-fanout per group.
// Queries that are not group-eligible — range queries, every other method
// (named or the planner's pick), validation failures, and
// queries on a category partitioned over several cells (a shared expansion
// runs over one binding; those members run as fanned singles) — come back in
// singles.
func (db *DB) planBatch(ctx context.Context, ops []query, mode SharedMode) ([]opPlan, []planUnit, []int) {
	plans := make([]opPlan, len(ops))
	var units []planUnit
	var singles []int
	byKey := map[groupKey]int{} // key -> index of its open unit
	for i := range ops {
		op, p := &ops[i], &plans[i]
		p.ep, p.m, p.err = db.prepare(ctx, op)
		if p.err != nil || op.isRange || mode == SharedOff || p.m != INE || len(p.ep.parts) > 1 {
			singles = append(singles, i)
			continue
		}
		key := groupKey{cat: op.opt.category, leaf: db.batchPartition().LeafOf[op.v]}
		ui, open := byKey[key]
		// Buckets split at the shared frontier's width: a wider group would
		// overflow the multi-source improvement masks.
		if open && len(units[ui].ops) >= dijkstra.MaxWidth {
			open = false
		}
		if !open {
			ui = len(units)
			byKey[key] = ui
			units = append(units, planUnit{cat: key.cat, leaf: key.leaf, ep: p.ep})
		}
		u := &units[ui]
		u.ops = append(u.ops, i)
		u.maxK = max(u.maxK, op.k)
	}
	// Decide each unit; members of non-shared units fan out individually.
	for ui := range units {
		u := &units[ui]
		switch {
		case len(u.ops) < 2:
		case mode == SharedOn:
			u.sharedRun = true
		default:
			u.choice = planner.ChooseBatch(db.features(u.maxK, u.ep), len(u.ops))
			u.sharedRun = u.choice.Shared
		}
		if !u.sharedRun {
			singles = append(singles, u.ops...)
		}
	}
	return plans, units, singles
}

// Run executes every added query and returns one BatchResult per query, in
// Add* order. Per-query failures (validation, unknown category, ...) land
// in the corresponding BatchResult.Err and do not affect other queries.
// The returned error is non-nil only when ctx was cancelled or expired
// before the batch drained; queries cut short or never started then carry
// ctx's error individually.
func (b *Batch) Run(ctx context.Context) ([]BatchResult, error) {
	out := make([]BatchResult, len(b.ops))
	if len(b.ops) == 0 {
		return out, ctx.Err()
	}
	plans, units, singles := b.db.planBatch(ctx, b.ops, b.shared)
	shared := units[:0:0]
	for _, u := range units {
		if u.sharedRun {
			shared = append(shared, u)
		}
	}
	b.db.batchStats.batches.Add(1)
	b.db.batchStats.sharedGroups.Add(uint64(len(shared)))
	for _, u := range shared {
		b.db.batchStats.sharedQueries.Add(uint64(len(u.ops)))
	}
	b.db.batchStats.fanoutQueries.Add(uint64(len(singles)))

	nUnits := len(shared) + len(singles)
	workers := b.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nUnits {
		workers = nUnits
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.db.batchWorker(ctx, b.ops, plans, out, shared, singles, &next)
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}

// batchWorker drains work units (shared groups first, then the fan-out
// singles) from the shared cursor. Sessions are checked out from the pools
// at most once per (worker, method) and returned when the worker's share is
// drained — the batch amortization this API exists for. After cancellation
// the worker keeps draining, marking each remaining query with ctx's error,
// so every result slot is filled.
func (db *DB) batchWorker(ctx context.Context, ops []query, plans []opPlan, out []BatchResult, shared []planUnit, singles []int, next *atomic.Int64) {
	var sess [numMethods]*pooledSession
	defer func() {
		for m, ps := range sess {
			if ps != nil {
				db.pools[m].put(ps)
			}
		}
	}()
	for {
		i := int(next.Add(1)) - 1
		if i >= len(shared)+len(singles) {
			return
		}
		if i < len(shared) {
			db.runBatchGroup(ctx, ops, &shared[i], out, &sess)
		} else {
			j := singles[i-len(shared)]
			out[j] = db.runBatchOp(ctx, &ops[j], &plans[j], &sess)
		}
	}
}

// runBatchGroup answers one shared group through a single KNNGroupAppend on
// the worker's INE session. Every member answers from the unit's pinned
// category epoch; each member's Latency is the group's elapsed time divided
// by the group size.
func (db *DB) runBatchGroup(ctx context.Context, ops []query, u *planUnit, out []BatchResult, sess *[numMethods]*pooledSession) {
	fail := func(err error) {
		for _, i := range u.ops {
			out[i] = BatchResult{Query: ops[i].v, Err: err}
		}
	}
	if err := ctx.Err(); err != nil {
		fail(err)
		return
	}
	ps, err := db.workerSession(sess, INE, u.ep.parts[0])
	if err != nil {
		fail(err)
		return
	}
	qs := make([]knn.GroupQuery, len(u.ops))
	dst := make([][]knn.Result, len(u.ops))
	for j, i := range u.ops {
		qs[j] = knn.GroupQuery{Q: ops[i].v, K: ops[i].k}
	}
	ps.arm(ctx)
	start := time.Now()
	ps.sess.(knn.BatchMethod).KNNGroupAppend(qs, dst)
	elapsed := time.Since(start)
	ps.disarm()
	if err := ctx.Err(); err != nil {
		// The expansion may have been cut short; drop the partial answers,
		// as run does.
		fail(err)
		return
	}
	per := elapsed / time.Duration(len(u.ops))
	for j, i := range u.ops {
		out[i] = BatchResult{Query: ops[i].v, Method: INE, Results: dst[j], Latency: per, Shared: true, Epoch: u.ep.n}
		db.stats.recordKNN(INE, per)
	}
}

// workerSession returns the worker's cached session of method m rebound to
// b, checking one out of the pool on the worker's first use of m.
// Rebinding an already-held session to another category snapshot is a few
// pointer swaps — the cheap path Batch exists to hit.
func (db *DB) workerSession(sess *[numMethods]*pooledSession, m Method, b *core.Binding) (*pooledSession, error) {
	if ps := sess[m]; ps != nil {
		ps.sess.Rebind(b)
		return ps, nil
	}
	ps, err := db.pools[m].get(b)
	sess[m] = ps
	return ps, err
}

// runBatchOp executes one prepared batch query on the worker's cached
// sessions. The search runs into the session's worker-local scratch buffer
// (reused across the worker's whole share of the batch); the only per-query
// allocation is the exact-size result copy the caller keeps.
func (db *DB) runBatchOp(ctx context.Context, op *query, p *opPlan, sess *[numMethods]*pooledSession) BatchResult {
	res := BatchResult{Query: op.v, Method: p.m, Err: p.err}
	if res.Err == nil {
		// A batch cancelled since planning reports ctx's error on every
		// query still queued instead of starting its search.
		res.Err = ctx.Err()
	}
	if res.Err != nil {
		return res
	}
	ps, err := db.workerSession(sess, p.m, p.ep.parts[0])
	if err != nil {
		res.Err = err
		return res
	}
	if res.Results, res.Latency, res.Err = db.runOwned(ctx, ps, op, p.ep, p.m); res.Err == nil {
		res.Epoch = p.ep.n
	}
	return res
}
