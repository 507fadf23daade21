// Package rnknn is the public, concurrency-safe entry point to the library:
// a DB facade over the kNN methods of Abeywickrama, Cheema and Taniar,
// "k-Nearest Neighbors on Road Networks: A Journey in Experimentation and
// In-Memory Implementation" (PVLDB 2016).
//
// A DB owns one road network and the road-network indexes of the methods it
// was opened with, and serves kNN and range queries from any number of
// goroutines: query sessions (per-method search state) are pooled, and
// object sets are named categories that can be bulk-swapped
// (RegisterObjects) or mutated incrementally (InsertObjects,
// RemoveObjects) while queries are in flight — the paper's decoupled
// index/object design (Section 2.2) as a live API. Each mutation derives a
// new immutable epoch of the category from the live one in O(delta); a
// query pins one epoch at its start and answers consistently from it no
// matter how much churn lands mid-query (see Epoch).
//
//	g := gen.Network(gen.NetworkSpec{Name: "city", Rows: 96, Cols: 120, Seed: 1})
//	db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.IERPHL, rnknn.Gtree))
//	if err != nil { ... }
//	if err := db.RegisterObjects("hospitals", hospitalVertices); err != nil { ... }
//	results, err := db.KNN(ctx, query, 10,
//		rnknn.WithMethod(rnknn.IERPHL), rnknn.WithCategory("hospitals"))
//
// Queries accept a context: cancellation and deadlines are checked between
// expansion steps of the long INE/Dijkstra-style scans, so a cancelled
// graph-wide scan returns promptly with the context's error. Invalid input
// surfaces as typed errors (ErrUnknownMethod, ErrBadVertex, ...) that work
// with errors.Is. DB.Stats exposes per-index build cost and per-method
// query counters.
//
// # Query execution
//
// Three execution shapes share the pooled sessions:
//
//   - KNN and Range return fully materialized result slices.
//   - KNNSeq streams each neighbor as it is confirmed (Go range-over-func);
//     breaking early abandons the rest of the search.
//   - Batch collects many queries and fans them across a bounded worker
//     pool, checking sessions out once per worker — the unit of work for
//     a server front end.
//
// A query that names no method (or names MethodAuto) is resolved per query
// through the planner: the paper's regime findings (no single method
// dominates; crossovers governed by k, object density, and network size —
// Section 7, Table 5) as one static cost model, a function of k, the
// category's live object count and the network size and of nothing else.
// Explain reports the planner's decision without running the query. A range query runs on INE or
// the IER family (range by Euclidean restriction), the planner's pick from
// the same table.
//
// # Index persistence
//
// Index construction is the expensive part of Open — G-tree and ROAD are
// linearithmic, CH/PHL/TNR somewhat above — and all of it can be paid once
// per graph instead of once per process. Three entry
// points, from most to least automatic:
//
//   - WithIndexCache(dir): Open loads dir/<name>-<fingerprint>.rnks if it
//     matches the graph, builds whatever is missing, and saves the result
//     back atomically. No other code changes; the second Open of the same
//     graph skips every build (Stats reports Loaded per index).
//   - OpenSnapshotFile(path) / OpenFromSnapshot(g, r): warm-start from a
//     snapshot written earlier — typically by cmd/buildindex at deploy
//     time. The first maps the file zero-copy; the second reads it into
//     memory and decodes it with every check.
//   - DB.SaveIndexes / DB.SaveIndexesFile: write the built indexes
//     explicitly.
//
// A snapshot records the fingerprint of the graph (topology, both weight
// arrays, the active weight kind, coordinates); loading it against any
// other graph fails with ErrFingerprintMismatch, and corrupt bytes fail
// with ErrBadSnapshot — never with silently wrong distances. A loaded index
// is bit-identical to the built one, so query answers are identical too.
// The on-disk layout is specified in docs/SNAPSHOT_FORMAT.md.
package rnknn

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"rnknn/internal/core"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/mapped"
	"rnknn/internal/partition"
)

// Graph is the road network a DB serves: a CSR adjacency with travel
// distance and travel time weights and vertex coordinates.
type Graph = graph.Graph

// Dist is a network distance (travel distance or travel time, depending on
// the graph's weight view).
type Dist = graph.Dist

// Result is one query answer: an object vertex and its network distance
// from the query vertex. Queries return results in nondecreasing distance
// order.
type Result = knn.Result

// DefaultCategory is the object category queries use when WithCategory is
// not given.
const DefaultCategory = "default"

// config collects Open options.
type config struct {
	methods []Method
	objects []initialObjects
	// cacheDir enables the transparent snapshot cache (WithIndexCache).
	cacheDir string
	// mmap selects the zero-copy load path for the cache file (WithMmap).
	mmap bool
	// snap, when non-nil, is a snapshot whose bytes Open loads first:
	// mapped by OpenSnapshotFile, read into the heap by OpenFromSnapshot.
	// seedFP carries OpenSnapshotFile's container fingerprint so the engine
	// never recomputes it from mapped pages.
	snap      *mapped.Snapshot
	seedFP    uint64
	seedFPSet bool
	// shardSet, when non-nil, is the manifest whose cell table Open installs
	// on the DB (OpenSharded).
	shardSet *shardManifest
}

type initialObjects struct {
	name     string
	vertices []int32
}

// Option configures Open.
type Option func(*config)

// WithMethods selects the query methods the DB supports. Each method's
// road-network index is built during Open. A query that names no method is
// planned among them (MethodAuto); their order only breaks the planner's
// ties and orders Methods. The default is {INE, Gtree}: INE where objects
// are dense, G-tree where they are sparse, at the cost of one G-tree build.
// Add IERPHL (the paper's overall winner) when the hub-labeling build cost
// is acceptable.
func WithMethods(ms ...Method) Option {
	return func(c *config) { c.methods = append([]Method(nil), ms...) }
}

// WithObjects registers an object category during Open, equivalent to
// calling RegisterObjects immediately after.
func WithObjects(name string, vertices []int32) Option {
	return func(c *config) {
		c.objects = append(c.objects, initialObjects{name, append([]int32(nil), vertices...)})
	}
}

// DB is a queryable road-network database. All methods are safe for
// concurrent use by any number of goroutines.
type DB struct {
	g       *graph.Graph
	eng     *core.Engine
	methods []Method
	enabled [numMethods]bool
	// bindKinds lists the enabled method kinds; every category binding
	// carries the derived object indexes for all of them.
	bindKinds []core.MethodKind
	// rangeKinds lists the kinds the planner picks a range query's method
	// from: INE, then the enabled IER family.
	rangeKinds []core.MethodKind
	// pools[m] pools query sessions of method m. pools[INE] always exists:
	// INE answers range queries whether or not it is an enabled kNN method.
	pools [numMethods]*sessionPool

	mu   sync.RWMutex // guards cats (the map, not the bindings inside)
	cats map[string]*category

	stats registry
	// batchStats aggregates batch execution counters (see Batch and Stats).
	batchStats batchCounters
	// mon aggregates continuous-query counters (see Monitor).
	mon monitorCounters
	// batchPT is the leaf partition the batch grouping planner clusters
	// queries by, built lazily by batchPartition on the first batch.
	batchPTOnce sync.Once
	batchPT     *partition.Tree

	// mapped, when non-nil, is the snapshot mapping this DB's graph and/or
	// indexes alias (OpenSnapshotFile, or WithMmap on the cache); released
	// by Close.
	mapped *mapped.Snapshot

	// shards, when non-nil, partitions every category's objects over the
	// cells of a shard set (OpenSharded); nil is the ordinary one-cell DB.
	shards *cellTable
}

// batchPartition returns the partition tree batch grouping keys on and shard
// sets are cut along: the G-tree's own partition when that index is built
// (it is already in memory, so the network is not partitioned twice),
// otherwise a standalone partition of the road network, built once on first
// use.
func (db *DB) batchPartition() *partition.Tree {
	db.batchPTOnce.Do(func() {
		if db.enabled[Gtree] {
			db.batchPT = db.eng.GtreeIndex().PT
			return
		}
		db.batchPT = partition.Build(db.g, partition.Options{Fanout: 4})
	})
	return db.batchPT
}

// Open builds a DB over g. The road-network index of every selected method
// is constructed here (so queries never pay index construction), which
// makes Open the expensive call: on the paper's parameters, expect G-tree
// and ROAD builds linearithmic in |V| and CH/PHL/TNR somewhat above that.
//
// The construction cost can be paid once per graph instead of once per
// process: WithIndexCache(dir) saves built indexes to disk and loads them on
// the next Open, and OpenFromSnapshot warm-starts from a snapshot written by
// SaveIndexes or cmd/buildindex.
func Open(g *Graph, opts ...Option) (*DB, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, fmt.Errorf("%w: nil or empty graph", ErrBadGraph)
	}
	cfg := config{methods: []Method{INE, Gtree}}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.methods) == 0 {
		return nil, fmt.Errorf("%w: WithMethods given no methods", ErrUnknownMethod)
	}
	db := &DB{
		g:          g,
		cats:       map[string]*category{},
		rangeKinds: []core.MethodKind{core.INE},
	}
	for _, m := range cfg.methods {
		if !m.valid() {
			return nil, fmt.Errorf("%w: %d", ErrUnknownMethod, int(m))
		}
		if db.enabled[m] {
			continue
		}
		db.enabled[m] = true
		db.methods = append(db.methods, m)
		db.bindKinds = append(db.bindKinds, m.kind())
		if m != INE && m.ranges() {
			db.rangeKinds = append(db.rangeKinds, m.kind())
		}
	}
	db.eng = core.New(g)
	if cfg.seedFPSet {
		db.eng.SeedFingerprint(cfg.seedFP)
	}
	// On any error below, an established mapping must be released before
	// the DB it was opened for is abandoned.
	fail := func(err error) (*DB, error) {
		_ = db.mapped.Close()
		return nil, err
	}
	if cfg.snap != nil {
		// A mapped snapshot stays held: the graph and mappable indexes alias
		// it. Heap bytes are decoded into private copies and dropped.
		if cfg.snap.Mapped {
			db.mapped = cfg.snap
		}
		if err := db.eng.LoadIndexesData(cfg.snap.Data, cfg.snap.Mapped); err != nil {
			return fail(err)
		}
	}
	var cachePath string
	if cfg.cacheDir != "" {
		if err := os.MkdirAll(cfg.cacheDir, 0o755); err != nil {
			return fail(err)
		}
		cachePath = cacheFilePath(cfg.cacheDir, g, db.eng.Fingerprint())
		// Best effort: a missing, corrupt, or mismatched cache file just
		// means the builds below run and refresh it.
		if cfg.mmap && db.mapped == nil {
			if ms, err := mapped.Open(cachePath); err == nil {
				if db.eng.LoadIndexesData(ms.Data, ms.Mapped) == nil {
					db.mapped = ms
				} else {
					_ = ms.Close()
				}
			}
		} else if data, err := os.ReadFile(cachePath); err == nil {
			_ = db.eng.LoadIndexesData(data, false)
		}
	}
	for _, m := range db.methods {
		db.eng.EnsureIndex(m.kind())
		db.pools[m] = newSessionPool(db.eng, m.kind())
	}
	if cachePath != "" {
		built := false
		for _, info := range db.eng.BuiltIndexes() {
			if !info.Loaded {
				built = true
				break
			}
		}
		if built {
			// Best effort, like the load above: a full or read-only cache
			// volume must not fail an Open whose indexes all built fine —
			// the next Open just builds again (see WithIndexCache).
			_ = writeFileAtomic(cachePath, db.eng.SaveIndexes)
		}
	}
	if db.pools[INE] == nil {
		db.pools[INE] = newSessionPool(db.eng, core.INE)
	}
	if cfg.shardSet != nil {
		if err := db.installCells(cfg.shardSet); err != nil {
			return fail(err)
		}
	}
	for _, o := range cfg.objects {
		if err := db.RegisterObjects(o.name, o.vertices); err != nil {
			return fail(err)
		}
	}
	return db, nil
}

// Graph returns the road network the DB serves.
func (db *DB) Graph() *Graph { return db.g }

// Methods returns the enabled methods in the order WithMethods gave them.
func (db *DB) Methods() []Method { return append([]Method(nil), db.methods...) }

// Categories returns the registered object category names, sorted. A
// category being created by a concurrent first mutation is listed only once
// its first epoch is published.
func (db *DB) Categories() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.cats))
	for name, cat := range db.cats {
		if cat.live.Load() != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
