package rnknn

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rnknn/internal/core"
	"rnknn/internal/knn"
	"rnknn/internal/planner"
)

// pooledSession wraps one core.Session with the per-session state the DB
// layer reuses across queries: the context-cancellation closure (created
// once at manufacture, so arming the interrupt hook per query allocates
// nothing) and a worker-local result buffer for the copy-at-the-boundary
// paths (KNN, Batch).
type pooledSession struct {
	sess core.Session
	// within is the session's bounded kNN, nil when the method has no
	// distance-bounded form (see searchWithin).
	within knn.BoundedMethod
	// ctx is the context check reads; set by arm, cleared by disarm.
	ctx   context.Context
	check func() bool
	// buf is scratch for queries whose results are copied into an
	// exact-size slice at the API boundary.
	buf []Result
	// order and merged are scratch for a fan: its cell visiting order and
	// the running top-k merged with one cell's answer (see DB.fan).
	order  []cellBound
	merged []Result
}

func newPooledSession(s core.Session) *pooledSession {
	ps := &pooledSession{sess: s}
	ps.within, _ = s.(knn.BoundedMethod)
	ps.check = func() bool { return ps.ctx != nil && ps.ctx.Err() != nil }
	return ps
}

// arm installs the context-cancellation interrupt for one query; disarm
// removes it.
func (ps *pooledSession) arm(ctx context.Context) {
	ps.ctx = ctx
	ps.sess.SetInterrupt(ps.check)
}

func (ps *pooledSession) disarm() {
	ps.sess.SetInterrupt(nil)
	ps.ctx = nil
}

// search is one method call on the session as it is bound, appending to dst.
func (ps *pooledSession) search(qr *query, dst []Result) []Result {
	if qr.isRange {
		return ps.sess.(knn.RangeMethod).RangeAppend(qr.v, qr.radius, dst)
	}
	return ps.sess.KNNAppend(qr.v, qr.k, dst)
}

// searchWithin is search for a kNN query whose answer cannot use an object
// farther than bound: the method's bounded search where it has one (INE,
// the IER family), else its plain search, whose results past bound the
// caller drops.
func (ps *pooledSession) searchWithin(qr *query, bound Dist, dst []Result) []Result {
	if ps.within == nil {
		return ps.search(qr, dst)
	}
	return ps.within.KNNWithinAppend(qr.v, qr.k, bound, dst)
}

// sessionPool hands out single-goroutine query sessions of one method kind.
// Sessions hold the method's search state (distance arrays, heaps, per-
// session oracle state), so pooling them is what makes unbounded concurrent
// callers cheap: a goroutine reuses a free session or manufactures a new
// one, and returns it when the query finishes.
type sessionPool struct {
	eng  *core.Engine
	kind core.MethodKind
	pool sync.Pool
	// gets/puts count checkouts and returns; the streaming tests compare
	// them to prove early-broken KNNSeq iterations release their session.
	// (Counting manufactures instead would be nondeterministic: the race-
	// detector build of sync.Pool drops Puts at random.)
	gets atomic.Uint64
	puts atomic.Uint64
}

func newSessionPool(eng *core.Engine, kind core.MethodKind) *sessionPool {
	return &sessionPool{eng: eng, kind: kind}
}

// get returns a session rebound to b, manufacturing one when the pool is
// empty. Only a successful checkout counts: a failed manufacture hands out
// nothing the caller could put back.
func (p *sessionPool) get(b *core.Binding) (*pooledSession, error) {
	if ps, ok := p.pool.Get().(*pooledSession); ok {
		p.gets.Add(1)
		ps.sess.Rebind(b)
		return ps, nil
	}
	s, err := p.eng.NewSession(p.kind, b)
	if err != nil {
		return nil, err
	}
	p.gets.Add(1)
	return newPooledSession(s), nil
}

func (p *sessionPool) put(ps *pooledSession) {
	p.puts.Add(1)
	p.pool.Put(ps)
}

// QueryOption configures one KNN or Range call. It is a plain value (not a
// closure): building and applying options never touches the heap, which
// keeps the KNNAppend/RangeAppend hot paths allocation-free.
type QueryOption struct {
	method      Method
	methodSet   bool
	category    string
	categorySet bool
}

// WithMethod selects the method answering this query (default: MethodAuto,
// the planner's pick among the DB's enabled methods).
func WithMethod(m Method) QueryOption {
	return QueryOption{method: m, methodSet: true}
}

// WithCategory selects the object category this query searches (default
// DefaultCategory).
func WithCategory(name string) QueryOption {
	return QueryOption{category: name, categorySet: true}
}

// query is one request as every entry point hands it to prepare: the query
// vertex, the neighbor count (kNN) or radius (range), and the call's options
// merged over the defaults.
type query struct {
	v       int32
	k       int
	radius  Dist
	isRange bool
	opt     QueryOption
}

func knnQuery(q int32, k int, opts []QueryOption) query {
	return query{v: q, k: k, opt: mergeOpts(opts)}
}

func rangeQuery(q int32, radius Dist, opts []QueryOption) query {
	return query{v: q, radius: radius, isRange: true, opt: mergeOpts(opts)}
}

// mergeOpts merges a call's options over the defaults every entry point
// shares: MethodAuto and DefaultCategory.
func mergeOpts(opts []QueryOption) QueryOption {
	qo := QueryOption{method: MethodAuto, category: DefaultCategory}
	for _, o := range opts {
		if o.methodSet {
			qo.method = o.method
		}
		if o.categorySet {
			qo.category = o.category
		}
	}
	return qo
}

// check is the typed validation of a query, in the one precedence every
// entry point reports: k or radius, then the method, then ctx, then the
// query vertex (the category follows, in prepare). A kNN method must be
// MethodAuto or a known method (ErrUnknownMethod) the DB was opened with
// (ErrMethodNotEnabled) — never a silent fallback. Range queries run on the
// methods with a range form: MethodAuto, INE (enabled or not: its pool always
// exists) and an enabled IER method are accepted, a known method without one
// (G-tree, ROAD) is ErrRangeMethod.
func (db *DB) check(ctx context.Context, qr *query) error {
	m := qr.opt.method
	switch {
	case qr.isRange && qr.radius < 0:
		return fmt.Errorf("%w: radius=%d", ErrBadRadius, qr.radius)
	case !qr.isRange && qr.k <= 0:
		return fmt.Errorf("%w: k=%d", ErrBadK, qr.k)
	case m == MethodAuto || qr.isRange && m == INE:
		// The planner decides, or INE's range form runs; nothing to validate.
	case !m.valid():
		return fmt.Errorf("%w: %d", ErrUnknownMethod, int(m))
	case qr.isRange && !m.ranges():
		return fmt.Errorf("%w: got %s", ErrRangeMethod, m)
	case !db.enabled[m]:
		return fmt.Errorf("%w: %s (enabled: %v)", ErrMethodNotEnabled, m, db.methods)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if qr.v < 0 || int(qr.v) >= db.g.NumVertices() {
		return fmt.Errorf("%w: query vertex %d (network has %d vertices)", ErrBadVertex, qr.v, db.g.NumVertices())
	}
	return nil
}

// features builds the planner's query-time signals from the pinned epoch
// (its object count across all cells: density is the category's, however it
// is partitioned).
func (db *DB) features(k int, ep *epoch) planner.Features {
	return planner.Features{K: k, NumObjects: ep.objects, NumVertices: db.g.NumVertices()}
}

// auto asks the planner to pick among the enabled methods for this (k,
// density, network) regime.
func (db *DB) auto(k int, ep *epoch) planner.Choice {
	return planner.Choose(db.bindKinds, db.features(k, ep))
}

// prepare is the first half of every query: validate (check), pin the
// category's live epoch, and resolve the concrete method that will run —
// the named one, or the planner's pick for MethodAuto. A range is planned
// among INE and the enabled IER family at a nominal k = 1: INE settles
// ≈1.2·m/density vertices and Euclidean restriction verifies ≈2.5·m
// candidates for the m objects inside the disc, so the radius cancels and
// the pick is a function of density alone. Nothing else in the package
// validates a query, pins an epoch for one, or resolves MethodAuto.
func (db *DB) prepare(ctx context.Context, qr *query) (*epoch, Method, error) {
	if err := db.check(ctx, qr); err != nil {
		return nil, 0, err
	}
	ep, err := db.snapshot(qr.opt.category)
	if err != nil {
		return nil, 0, err
	}
	switch {
	case qr.opt.method != MethodAuto:
		return ep, qr.opt.method, nil
	case qr.isRange:
		return ep, Method(planner.Choose(db.rangeKinds, db.features(1, ep)).Kind), nil
	}
	return ep, Method(db.auto(qr.k, ep).Kind), nil
}

// run is the second half: one search of a prepared query over epoch ep on a
// session of method m, appending to dst. It is where an ordinary category
// and a partitioned one part ways: over one cell the session — already bound
// to ep's single part by whoever checked it out — searches once; over
// several, fan visits the cells the bounds cannot prune, rebinding as it
// goes. Either way run arms the session with ctx, times exactly the search,
// disarms, and either drops the partial answer of a cancelled scan (dst
// comes back unextended with ctx's error) or records the one completed
// query.
func (db *DB) run(ctx context.Context, ps *pooledSession, qr *query, ep *epoch, m Method, dst []Result) ([]Result, time.Duration, error) {
	mark := len(dst)
	ps.arm(ctx)
	start := time.Now()
	if len(ep.parts) == 1 {
		dst = ps.search(qr, dst)
	} else {
		dst = db.fan(ctx, ps, qr, ep, dst)
	}
	elapsed := time.Since(start)
	ps.disarm()
	if err := ctx.Err(); err != nil {
		return dst[:mark], elapsed, err
	}
	if qr.isRange {
		db.stats.recordRange(m, elapsed)
	} else {
		db.stats.recordKNN(m, elapsed)
	}
	return dst, elapsed, nil
}

// runOwned is run for callers that keep the answer: the search runs
// allocation-free into the session's scratch buffer, and the one allocation
// is the exact-size copy handed back.
func (db *DB) runOwned(ctx context.Context, ps *pooledSession, qr *query, ep *epoch, m Method) ([]Result, time.Duration, error) {
	buf, elapsed, err := db.run(ctx, ps, qr, ep, m, ps.buf[:0])
	ps.buf = buf
	if err != nil {
		return nil, elapsed, err
	}
	res := make([]Result, len(buf))
	copy(res, buf)
	return res, elapsed, nil
}

// exec composes prepare and run for the one-shot entry points: check a
// session of the resolved method out of its pool, run, return it. Results
// are appended to dst, or returned as a fresh exact-size slice when dst is
// nil; the epoch is the one the search ran on. On error dst comes back
// unextended and the epoch is zero.
func (db *DB) exec(ctx context.Context, qr query, dst []Result) ([]Result, uint64, error) {
	ep, m, err := db.prepare(ctx, &qr)
	if err != nil {
		return dst, 0, err
	}
	ps, err := db.pools[m].get(ep.parts[0])
	if err != nil {
		return dst, 0, err
	}
	if dst == nil {
		dst, _, err = db.runOwned(ctx, ps, &qr, ep, m)
	} else {
		dst, _, err = db.run(ctx, ps, &qr, ep, m, dst)
	}
	db.pools[m].put(ps)
	if err != nil {
		return dst, 0, err
	}
	return dst, ep.n, nil
}

// Plan describes how a query would execute: the concrete method KNN would
// run and, for MethodAuto, the planner's rationale.
type Plan struct {
	// Method is the concrete method that would answer the query.
	Method Method
	// Reason is a one-line human-readable rationale.
	Reason string
}

// Explain resolves the method a KNN call with the same arguments would
// run, without running it. For MethodAuto it reports the planner's choice
// and cost rationale; for a fixed method it validates the request. The
// plan is a function of k, the category's live object count and the network
// size alone: it changes when objects are inserted or removed, never with
// the queries that ran before.
func (db *DB) Explain(q int32, k int, opts ...QueryOption) (Plan, error) {
	qr := knnQuery(q, k, opts)
	ep, m, err := db.prepare(context.Background(), &qr)
	if err != nil {
		return Plan{}, err
	}
	if qr.opt.method != MethodAuto {
		return Plan{Method: m, Reason: "requested with WithMethod"}, nil
	}
	return Plan{Method: m, Reason: db.auto(k, ep).Reason()}, nil
}

// KNN returns the k nearest objects of the query's category to vertex q by
// network distance (fewer if the live object set is smaller than k), in
// nondecreasing distance order. It is safe for unbounded concurrent
// callers. Cancellation or expiry of ctx is checked between the search
// steps of every method (expansion steps for INE, ROAD and G-tree, candidates
// for the IER family), so long graph-wide scans return promptly with ctx's
// error.
func (db *DB) KNN(ctx context.Context, q int32, k int, opts ...QueryOption) ([]Result, error) {
	res, _, err := db.exec(ctx, knnQuery(q, k, opts), nil)
	return res, err
}

// KNNAppend answers the same query as KNN but appends the results to dst
// and returns the extended slice — the zero-allocation form of the public
// API: a caller reusing its buffer across queries (one buffer per
// goroutine, like any append target) pays no per-query heap allocation on
// a warm DB, because the pooled session's search state is reused and
// result storage is caller-owned. Identical validation, method resolution,
// cancellation, and Stats/planner recording; on error, dst is returned
// unextended.
func (db *DB) KNNAppend(ctx context.Context, q int32, k int, dst []Result, opts ...QueryOption) ([]Result, error) {
	dst, _, err := db.exec(ctx, knnQuery(q, k, opts), dst)
	return dst, err
}

// KNNPinned answers the same query as KNN and additionally reports the
// epoch of the category snapshot the search pinned — read from the very
// binding the query ran on, not re-read around the call. That atomicity is
// what an exact result cache keyed on (vertex, k, category, epoch) needs: a
// result stamped with epoch E was computed from exactly epoch E's object
// set, so storing it under E can never serve an answer from one epoch to a
// reader observing another, no matter how much churn raced the query. The
// serving layer (internal/serve) is the intended caller; everything else
// about validation, method resolution, cancellation, and Stats/planner
// recording is identical to KNN.
func (db *DB) KNNPinned(ctx context.Context, q int32, k int, opts ...QueryOption) ([]Result, uint64, error) {
	return db.exec(ctx, knnQuery(q, k, opts), nil)
}

// Range returns every object of the query's category within network
// distance radius (inclusive) of vertex q, in nondecreasing distance order.
// Range queries run on INE (a radius-bounded expansion) or the IER family
// (range by Euclidean restriction: the R-tree scan stops at the first
// object whose Euclidean lower bound exceeds the radius). With no method
// named, or MethodAuto, the planner picks among INE and the enabled IER
// methods from the category's density — INE where objects are dense or no
// fast oracle is enabled. WithMethod accepts INE (enabled or not) and any
// enabled IER method; a method without a range form reports ErrRangeMethod
// (an unknown one, ErrUnknownMethod). Safe for unbounded concurrent callers,
// with the same context semantics as KNN.
func (db *DB) Range(ctx context.Context, q int32, radius Dist, opts ...QueryOption) ([]Result, error) {
	res, _, err := db.exec(ctx, rangeQuery(q, radius, opts), nil)
	return res, err
}

// RangeAppend answers the same query as Range but appends the results to
// dst and returns the extended slice — the zero-allocation form, mirroring
// KNNAppend. On error, dst is returned unextended.
func (db *DB) RangeAppend(ctx context.Context, q int32, radius Dist, dst []Result, opts ...QueryOption) ([]Result, error) {
	dst, _, err := db.exec(ctx, rangeQuery(q, radius, opts), dst)
	return dst, err
}

// RangePinned answers the same query as Range and additionally reports the
// epoch of the category snapshot the search pinned — the range analogue of
// KNNPinned, and the call the serving layer's range cache needs: stamping
// the answer with the epoch of the very binding it ran on (not re-read
// around the call) closes the load-epoch/run-query race, so an entry keyed
// on (vertex, radius, category, epoch) can never serve one epoch's answer
// to a reader observing another. Validation, method rules, cancellation, and
// Stats recording are identical to Range.
func (db *DB) RangePinned(ctx context.Context, q int32, radius Dist, opts ...QueryOption) ([]Result, uint64, error) {
	return db.exec(ctx, rangeQuery(q, radius, opts), nil)
}

// BruteForceKNN answers the query by a plain Dijkstra expansion over the
// category's live object set — the correctness reference every method is
// validated against. A WithMethod option is validated (unknown or
// disabled methods are typed errors, not silently ignored) but the
// expansion always runs the reference scan; not recorded in Stats.
func (db *DB) BruteForceKNN(q int32, k int, opts ...QueryOption) ([]Result, error) {
	qr := knnQuery(q, k, opts)
	ep, _, err := db.prepare(context.Background(), &qr)
	if err != nil {
		return nil, err
	}
	return knn.BruteForce(db.g, db.objectSet(ep), q, k), nil
}

// BruteForceRange is the range-query correctness reference, mirroring
// BruteForceKNN.
func (db *DB) BruteForceRange(q int32, radius Dist, opts ...QueryOption) ([]Result, error) {
	qr := rangeQuery(q, radius, opts)
	ep, _, err := db.prepare(context.Background(), &qr)
	if err != nil {
		return nil, err
	}
	return knn.BruteForceRange(db.g, db.objectSet(ep), q, radius), nil
}

// objectSet gathers ep's objects across its cells into the one set the
// brute-force references scan.
func (db *DB) objectSet(ep *epoch) *knn.ObjectSet {
	var all []int32
	for _, p := range ep.parts {
		all = append(all, p.Objs.Vertices()...)
	}
	return knn.NewObjectSet(db.g, all)
}

// SameResults reports whether two result lists agree, tolerating reordering
// among tied distances (and any choice of ties at the k-th distance).
func SameResults(a, b []Result) bool { return knn.SameResults(a, b) }

// FormatResults renders results compactly ("[vertex:dist ...]") for logs.
func FormatResults(rs []Result) string { return knn.FormatResults(rs) }
