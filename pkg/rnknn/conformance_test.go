package rnknn

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"rnknn/internal/gen"
)

// One table for every query entry point. Each adapter below is a thin shell
// over prepare/run, so each must show the same behaviour on the same rows:
// the same typed error in the same precedence, one Stats entry per completed
// query and none for a cancelled one, and a balanced session pool whatever
// cut the query short. Every row runs twice: on an ordinary DB, and (as
// "ShardedDB.<row>") on the same network and objects opened as a four-cell
// shard set — the same methods of the same type, over a partitioned epoch.
// The range rows run a third time (as "Mapped.<row>") on the DB's own
// snapshot opened zero-copy. That each adapter answers brute force's answer
// at the epoch it reports, on all three topologies and under churn, is the
// differential harness's check (differential_test.go), which drives these
// same adapters.

const confCat = "poi"

// confEnv is one fresh database per adapter (so its counters start at
// zero): db is the one under test — an ordinary DB, a four-cell shard set or
// a mapped open of the ordinary DB's snapshot — and ref the ordinary DB over
// the same network and objects whose brute force is the reference (db itself
// when that is the one under test).
type confEnv struct {
	t       *testing.T
	db, ref *DB
}

// The topologies a row runs on; each one's name prefixes the row's.
const (
	confMono    = ""
	confSharded = "ShardedDB."
	confMapped  = "Mapped."
)

func newConfEnv(t *testing.T, topology string) *confEnv {
	t.Helper()
	g := gen.Network(gen.NetworkSpec{Name: "conf", Rows: 12, Cols: 14, Seed: 21})
	objs := gen.Uniform(g, 0.06, 5)
	db, err := Open(g, WithMethods(INE, IERPHL, Gtree, ROAD), WithObjects(confCat, objs))
	if err != nil {
		t.Fatal(err)
	}
	e := &confEnv{t: t, db: reopen(t, db, topology, WithObjects(confCat, objs)), ref: db}
	// One set-changing mutation, so the pinned epoch is not the zero value.
	if err := db.RemoveObjects(confCat, objs[:1]); err != nil {
		t.Fatal(err)
	}
	if e.db != db {
		if err := e.db.RemoveObjects(confCat, objs[:1]); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// reopen opens db's network and indexes, with the given categories, as the
// named topology: db itself, a shard set of up to four cells, or a mapped
// open of db's snapshot. Either reopening must load every index, not build
// it.
func reopen(t *testing.T, db *DB, topology string, cats ...Option) *DB {
	t.Helper()
	if topology == confMono {
		return db
	}
	dir := t.TempDir()
	var out *DB
	var err error
	if topology == confSharded {
		if err = db.SaveShardSet(dir, min(4, len(db.batchPartition().Leaves()))); err == nil {
			out, err = OpenSharded(dir, cats...)
		}
	} else if err = db.SaveIndexesFile(dir + "/conf.rnks"); err == nil {
		out, err = OpenSnapshotFile(dir+"/conf.rnks", append([]Option{WithMethods(db.Methods()...)}, cats...)...)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { out.Close() })
	for name, ix := range out.Stats().Indexes {
		if !ix.Loaded {
			t.Fatalf("%s: index %s rebuilt instead of loaded", topology, name)
		}
	}
	if out.Graph().NumVertices() != db.Graph().NumVertices() || out.Graph().NumEdges() != db.Graph().NumEdges() {
		t.Fatalf("%s: graph of %d/%d vertices/edges, want %d/%d", topology,
			out.Graph().NumVertices(), out.Graph().NumEdges(), db.Graph().NumVertices(), db.Graph().NumEdges())
	}
	return out
}

// poolsBalanced reports whether every session checked out was returned.
func (e *confEnv) poolsBalanced() bool {
	for _, p := range e.db.pools {
		if p != nil && p.gets.Load() != p.puts.Load() {
			return false
		}
	}
	return true
}

// confAnswer is what an adapter got back: the results, and the epoch where
// the entry point reports one.
type confAnswer struct {
	res      []Result
	epoch    uint64
	hasEpoch bool
}

type confAdapter struct {
	name    string
	isRange bool
	// oneCell: the row is about a single-binding code path (a shared
	// expansion group) and does not run on the shard set.
	oneCell bool
	// noCtx: the entry point takes no context (the brute-force references).
	noCtx bool
	// records is how many Stats entries one completed call lands.
	records int
	// ask runs one query to completion; arg is k, or the radius.
	ask func(e *confEnv, ctx context.Context, q int32, arg int, opts ...QueryOption) (confAnswer, error)
	// first, on the streaming entry points, consumes one element and breaks.
	first func(e *confEnv, ctx context.Context, q int32, k int, opts ...QueryOption)
}

func results(res []Result, err error) (confAnswer, error) {
	if err != nil && res != nil {
		err = errors.Join(err, errors.New("results returned beside an error"))
	}
	return confAnswer{res: res}, err
}

func pinned(res []Result, epoch uint64, err error) (confAnswer, error) {
	a, err := results(res, err)
	a.epoch, a.hasEpoch = epoch, true
	return a, err
}

// appended checks the Append contract on the way through: the caller's
// prefix survives, and on error nothing was appended to it.
func appended(dst []Result, err error) (confAnswer, error) {
	if len(dst) == 0 || dst[0].Vertex != -7 {
		return confAnswer{}, errors.Join(err, errors.New("append clobbered the caller's prefix"))
	}
	if err != nil && len(dst) != 1 {
		return confAnswer{}, errors.Join(err, errors.New("append extended dst beside an error"))
	}
	if err != nil {
		return confAnswer{}, err
	}
	return confAnswer{res: dst[1:]}, nil
}

func collect(seq func(func(Result, error) bool)) (confAnswer, error) {
	var res []Result
	for r, err := range seq {
		if err != nil {
			return confAnswer{}, err
		}
		res = append(res, r)
	}
	return confAnswer{res: res}, nil
}

func member(e *confEnv, b *Batch, ctx context.Context, wantShared bool) (confAnswer, error) {
	// Run's own error only says ctx ended before Run returned; the member's
	// outcome is the member's.
	out, _ := b.Run(ctx)
	// Only INE has a shared expansion: members on another method (named, or
	// the planner's pick) run one by one even when sharing is forced on.
	if out[0].Err == nil && out[0].Shared != (wantShared && out[0].Method == INE) {
		e.t.Errorf("batch member Shared = %v, want %v", out[0].Shared, wantShared)
	}
	return pinned(out[0].Results, out[0].Epoch, out[0].Err)
}

var confAdapters = []confAdapter{
	{name: "KNN", records: 1,
		ask: func(e *confEnv, ctx context.Context, q int32, k int, opts ...QueryOption) (confAnswer, error) {
			return results(e.db.KNN(ctx, q, k, opts...))
		}},
	{name: "KNNAppend", records: 1,
		ask: func(e *confEnv, ctx context.Context, q int32, k int, opts ...QueryOption) (confAnswer, error) {
			return appended(e.db.KNNAppend(ctx, q, k, append(make([]Result, 0, 16), Result{Vertex: -7}), opts...))
		}},
	{name: "KNNPinned", records: 1,
		ask: func(e *confEnv, ctx context.Context, q int32, k int, opts ...QueryOption) (confAnswer, error) {
			return pinned(e.db.KNNPinned(ctx, q, k, opts...))
		}},
	{name: "KNNSeq", records: 1,
		ask: func(e *confEnv, ctx context.Context, q int32, k int, opts ...QueryOption) (confAnswer, error) {
			return collect(e.db.KNNSeq(ctx, q, k, opts...))
		},
		first: func(e *confEnv, ctx context.Context, q int32, k int, opts ...QueryOption) {
			for range e.db.KNNSeq(ctx, q, k, opts...) {
				break
			}
		}},
	{name: "Batch single", records: 1,
		ask: func(e *confEnv, ctx context.Context, q int32, k int, opts ...QueryOption) (confAnswer, error) {
			return member(e, e.db.Batch().SharedExpansion(SharedOff).AddKNN(q, k, opts...), ctx, false)
		}},
	{name: "Batch shared member", oneCell: true, records: 2,
		ask: func(e *confEnv, ctx context.Context, q int32, k int, opts ...QueryOption) (confAnswer, error) {
			// One worker: on a method with no shared path the two members are
			// two units, and on two workers the second could complete (and be
			// recorded) while the first — the one reported — is cancelled.
			return member(e, e.db.Batch().Workers(1).SharedExpansion(SharedOn).AddKNN(q, k, opts...).AddKNN(q, k, opts...), ctx, true)
		}},
	{name: "Monitor first step", records: 1,
		ask: func(e *confEnv, ctx context.Context, q int32, k int, opts ...QueryOption) (confAnswer, error) {
			for u, err := range e.db.Monitor(ctx, []int32{q}, k, opts...) {
				if err != nil {
					return confAnswer{}, err
				}
				a := confAnswer{epoch: u.Epoch, hasEpoch: true}
				for _, ev := range u.Events {
					if ev.Kind != MonitorEnter {
						e.t.Errorf("first monitor step carries a %v event", ev.Kind)
					}
					a.res = append(a.res, Result{Vertex: ev.Object, Dist: ev.Dist})
				}
				return a, nil
			}
			return confAnswer{}, errors.New("monitor yielded nothing")
		},
		first: func(e *confEnv, ctx context.Context, q int32, k int, opts ...QueryOption) {
			for range e.db.Monitor(ctx, []int32{q, q}, k, opts...) {
				break
			}
		}},
	{name: "BruteForceKNN", noCtx: true,
		ask: func(e *confEnv, _ context.Context, q int32, k int, opts ...QueryOption) (confAnswer, error) {
			return results(e.db.BruteForceKNN(q, k, opts...))
		}},

	{name: "Range", isRange: true, records: 1,
		ask: func(e *confEnv, ctx context.Context, q int32, radius int, opts ...QueryOption) (confAnswer, error) {
			return results(e.db.Range(ctx, q, Dist(radius), opts...))
		}},
	{name: "RangeAppend", isRange: true, records: 1,
		ask: func(e *confEnv, ctx context.Context, q int32, radius int, opts ...QueryOption) (confAnswer, error) {
			return appended(e.db.RangeAppend(ctx, q, Dist(radius), append(make([]Result, 0, 16), Result{Vertex: -7}), opts...))
		}},
	{name: "RangePinned", isRange: true, records: 1,
		ask: func(e *confEnv, ctx context.Context, q int32, radius int, opts ...QueryOption) (confAnswer, error) {
			return pinned(e.db.RangePinned(ctx, q, Dist(radius), opts...))
		}},
	{name: "Batch range", isRange: true, records: 1,
		ask: func(e *confEnv, ctx context.Context, q int32, radius int, opts ...QueryOption) (confAnswer, error) {
			return member(e, e.db.Batch().AddRange(q, Dist(radius), opts...), ctx, false)
		}},
	{name: "BruteForceRange", isRange: true, noCtx: true,
		ask: func(e *confEnv, _ context.Context, q int32, radius int, opts ...QueryOption) (confAnswer, error) {
			return results(e.db.BruteForceRange(q, Dist(radius), opts...))
		}},
}

// confFault is one way a request can be wrong. Faults are listed in the
// precedence every entry point reports them; a row applies one fault
// together with one fault of every later level and expects the first.
type confFault struct {
	name               string
	level              int
	apply              func(in *confInput, isRange bool)
	wantKNN, wantRange error
	representsItsLevel bool
	skipWithoutContext bool
	appliesOnlyToKNN   bool
	appliesOnlyToRange bool
}

type confInput struct {
	cancelled bool
	q         int32
	arg       int
	opts      []QueryOption
}

func confFaults(numVertices int) []confFault {
	return []confFault{
		{name: "zero k / negative radius", level: 0, representsItsLevel: true, wantKNN: ErrBadK, wantRange: ErrBadRadius,
			apply: func(in *confInput, isRange bool) {
				in.arg = 0
				if isRange {
					in.arg = -1
				}
			}},
		{name: "negative k", level: 0, appliesOnlyToKNN: true, wantKNN: ErrBadK,
			apply: func(in *confInput, _ bool) { in.arg = -3 }},
		{name: "unknown method", level: 1, representsItsLevel: true, wantKNN: ErrUnknownMethod, wantRange: ErrUnknownMethod,
			apply: func(in *confInput, _ bool) { in.opts = append(in.opts, WithMethod(Method(99))) }},
		{name: "negative method", level: 1, wantKNN: ErrUnknownMethod, wantRange: ErrUnknownMethod,
			apply: func(in *confInput, _ bool) { in.opts = append(in.opts, WithMethod(Method(-7))) }},
		{name: "method not enabled", level: 1, wantKNN: ErrMethodNotEnabled, wantRange: ErrMethodNotEnabled,
			apply: func(in *confInput, _ bool) { in.opts = append(in.opts, WithMethod(IERCH)) }},
		{name: "G-tree on a range", level: 1, appliesOnlyToRange: true, wantRange: ErrRangeMethod,
			apply: func(in *confInput, _ bool) { in.opts = append(in.opts, WithMethod(Gtree)) }},
		{name: "ROAD on a range", level: 1, appliesOnlyToRange: true, wantRange: ErrRangeMethod,
			apply: func(in *confInput, _ bool) { in.opts = append(in.opts, WithMethod(ROAD)) }},
		{name: "cancelled ctx", level: 2, representsItsLevel: true, skipWithoutContext: true, wantKNN: context.Canceled, wantRange: context.Canceled,
			apply: func(in *confInput, _ bool) { in.cancelled = true }},
		{name: "negative vertex", level: 3, representsItsLevel: true, wantKNN: ErrBadVertex, wantRange: ErrBadVertex,
			apply: func(in *confInput, _ bool) { in.q = -1 }},
		{name: "vertex past the end", level: 3, wantKNN: ErrBadVertex, wantRange: ErrBadVertex,
			apply: func(in *confInput, _ bool) { in.q = int32(numVertices) }},
		{name: "unknown category", level: 4, representsItsLevel: true, wantKNN: ErrUnknownCategory, wantRange: ErrUnknownCategory,
			apply: func(in *confInput, _ bool) { in.opts = append(in.opts, WithCategory("nope")) }},
	}
}

// cancelAt is a context that reports itself cancelled from its (n+1)-th Err
// call on: sweeping n cancels a query at every point where it looks.
type cancelAt struct {
	context.Context
	left atomic.Int64
}

func newCancelAt(n int) *cancelAt {
	c := &cancelAt{Context: context.Background()}
	c.left.Store(int64(n))
	return c
}

func (c *cancelAt) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestEntryPointConformance(t *testing.T) {
	for _, a := range confAdapters {
		conformance(t, a, confMono)
		if !a.oneCell {
			conformance(t, a, confSharded)
		}
		if a.isRange {
			conformance(t, a, confMapped)
		}
	}
}

func conformance(t *testing.T, a confAdapter, topology string) {
	const (
		k      = 4
		radius = 3000
		q      = int32(57)
	)
	name := topology + a.name
	arg := k
	if a.isRange {
		arg = radius
	}
	reference := func(e *confEnv, q int32) []Result {
		var want []Result
		var err error
		if a.isRange {
			want, err = e.ref.BruteForceRange(q, radius, WithCategory(confCat))
		} else {
			want, err = e.ref.BruteForceKNN(q, k, WithCategory(confCat))
		}
		if err != nil {
			t.Fatal(err)
		}
		return want
	}

	t.Run(name+"/errors", func(t *testing.T) {
		e := newConfEnv(t, topology)
		faults := confFaults(e.db.Graph().NumVertices())
		for _, f := range faults {
			if a.isRange && f.appliesOnlyToKNN || !a.isRange && f.appliesOnlyToRange || a.noCtx && f.skipWithoutContext {
				continue
			}
			in := confInput{q: q, arg: arg, opts: []QueryOption{WithCategory(confCat)}}
			f.apply(&in, a.isRange)
			for _, later := range faults {
				if later.level > f.level && later.representsItsLevel {
					later.apply(&in, a.isRange)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			if in.cancelled {
				cancel()
			}
			ans, err := a.ask(e, ctx, in.q, in.arg, in.opts...)
			cancel()
			want := f.wantKNN
			if a.isRange {
				want = f.wantRange
			}
			if !errors.Is(err, want) || ans.res != nil {
				t.Errorf("%s (and every later fault): got %v with %d results, want %v and none", f.name, err, len(ans.res), want)
			}
		}
		for name, ms := range e.db.Stats().Methods {
			if ms.KNNQueries+ms.RangeQueries != 0 {
				t.Errorf("rejected queries were recorded under %s: %+v", name, ms)
			}
		}
		if !e.poolsBalanced() {
			t.Error("a rejected query kept a session")
		}
	})

	// The first completed query on a fresh database: its Stats entries can
	// be counted exactly. Over several cells too: a fan is one query.
	t.Run(name+"/records", func(t *testing.T) {
		if a.noCtx {
			t.Skip("the brute-force references record nothing")
		}
		e := newConfEnv(t, topology)
		if _, err := a.ask(e, context.Background(), q, arg, WithCategory(confCat), WithMethod(INE)); err != nil {
			t.Fatal(err)
		}
		ms := e.db.Stats().Methods[INE.String()]
		if got := ms.KNNQueries + ms.RangeQueries; got != uint64(a.records) {
			t.Errorf("%d queries recorded, want %d", got, a.records)
		}
	})

	// Cancel the query at every point where it consults ctx, until it
	// gets through: each cancelled attempt must surface ctx's error with
	// no results, record nothing and return its session. Once per method
	// whose search polls ctx: the two expansions and G-tree for kNN, the
	// two range forms for a range.
	pollers := []Method{INE, ROAD, Gtree}
	if a.isRange {
		pollers = []Method{INE, IERPHL}
	}
	for _, m := range pollers {
		t.Run(name+"/cancel/"+m.String(), func(t *testing.T) {
			if a.noCtx {
				t.Skip("takes no context")
			}
			e := newConfEnv(t, topology)
			for n := 0; ; n++ {
				if n > 500 {
					t.Fatal("query never got through")
				}
				ans, err := a.ask(e, newCancelAt(n), q, arg, WithCategory(confCat), WithMethod(m))
				if !e.poolsBalanced() {
					t.Fatalf("cancel at check %d: session not returned", n)
				}
				if err == nil {
					if !SameResults(ans.res, reference(e, q)) {
						t.Errorf("uncancelled answer %s differs from brute force", FormatResults(ans.res))
					}
					break
				}
				if !errors.Is(err, context.Canceled) || ans.res != nil {
					t.Fatalf("cancel at check %d: got %v with %d results", n, err, len(ans.res))
				}
				ms := e.db.Stats().Methods[m.String()]
				if ms.KNNQueries+ms.RangeQueries != 0 {
					t.Fatalf("cancel at check %d: recorded %+v", n, ms)
				}
			}
		})
	}

	if a.first != nil {
		t.Run(name+"/early-break", func(t *testing.T) {
			e := newConfEnv(t, topology)
			a.first(e, context.Background(), q, k, WithCategory(confCat))
			if !e.poolsBalanced() {
				t.Error("early break kept a session")
			}
		})
	}
}
