package rnknn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rnknn/internal/core"
	"rnknn/internal/knn"
)

// epoch is one version of a category: the counter Epoch reports and one
// binding (object set plus derived per-method object indexes, each filled
// in once by its first reader) per partition cell — a single part on an ordinary DB, the manifest's cell count
// on a shard set (see OpenSharded). Every part derives from the same
// mutation history, so a query that pins an epoch answers from one
// object-set version across all cells.
type epoch struct {
	n       uint64
	parts   []*core.Binding
	objects int // live objects across parts
}

// category is one named object set: a chain of epochs, of which
// live holds the current one. Queries pin an epoch by loading the pointer
// once; writers serialize on mu, derive the next epoch from the live one, and
// publish it with a single store.
type category struct {
	// mu serializes mutations (RegisterObjects, InsertObjects,
	// RemoveObjects) so each next epoch derives from the latest one and
	// epoch numbers advance monotonically. Readers never take it.
	mu   sync.Mutex
	live atomic.Pointer[epoch]
	// adds and removes are advance's per-cell split of a delta, reused
	// under mu, so a mutation's split allocates nothing once they have
	// grown to its size.
	adds, removes [][]int32
}

// RegisterObjects installs (or atomically replaces) the named object
// category — the bulk path: the category's derived object indexes (R-tree,
// occurrence list, association directory, whichever the enabled methods
// need) are built from scratch over the full set. For a handful of changes
// to an existing category, InsertObjects and RemoveObjects update those
// same indexes incrementally instead, each on its first read. Duplicated vertices are dropped.
//
// Replacement is safe while queries are in flight: each query pins the
// category's epoch once at its start, so an in-flight query answers
// consistently over whichever set was live when it began, and queries
// started after RegisterObjects returns see the new set.
func (db *DB) RegisterObjects(name string, vertices []int32) error {
	if err := db.checkObjects(name, vertices); err != nil {
		return err
	}
	cat := db.category(name)
	cat.mu.Lock()
	defer cat.mu.Unlock()
	// Building the derived indexes happens outside any query's path; only
	// the final pointer swap synchronizes with readers.
	next := db.newEpoch(vertices)
	if cur := cat.live.Load(); cur != nil {
		next.n = cur.n + 1
	}
	cat.live.Store(next)
	return nil
}

// InsertObjects adds vertices to the named category without rebuilding its
// derived object indexes: the next epoch derives only the object set from
// the live one (core.Engine.NextBinding), copying the page directory and
// the membership pages holding its vertices — nothing that grows with the
// category.
// Each method's object index (the R-tree, G-tree's occurrence list, ROAD's
// association directory) is brought up to date by the first query that
// reads it, from the newest built one by copying what the composed delta
// touches — or, once the changes since it reach the category's size,
// rebuilt from the set — so a mutation spends no index work on a method
// nobody queries. A category that does not exist yet is created, so
// InsertObjects into a fresh name is equivalent to RegisterObjects.
// Vertices already present are ignored.
//
// Mutations on one category serialize with each other and never wait for
// a query. A query never waits for a mutation; the first queries of a
// method on a new epoch wait for that epoch's one derivation of the index
// they read. No query observes a half-applied delta — a query either runs
// entirely on the epoch before this call or entirely on an epoch
// including it.
func (db *DB) InsertObjects(name string, vertices []int32) error {
	if err := db.checkObjects(name, vertices); err != nil {
		return err
	}
	cat := db.category(name)
	cat.mu.Lock()
	defer cat.mu.Unlock()
	cur := cat.live.Load()
	if cur == nil {
		cat.live.Store(db.newEpoch(vertices))
		return nil
	}
	db.advance(cat, cur, vertices, nil)
	return nil
}

// RemoveObjects deletes vertices from the named category, deriving the next
// epoch exactly like InsertObjects: the object set now, each method's index
// on its first read (the R-tree uses a lazy delete with a
// degradation-triggered repack). Vertices not in the set are
// ignored; an unknown category is ErrUnknownCategory. Removing every object
// leaves an empty category: queries on it return no results.
func (db *DB) RemoveObjects(name string, vertices []int32) error {
	if err := db.checkObjects(name, vertices); err != nil {
		return err
	}
	db.mu.RLock()
	cat := db.cats[name]
	db.mu.RUnlock()
	if cat == nil {
		return fmt.Errorf("%w: %q (registered: %v)", ErrUnknownCategory, name, db.Categories())
	}
	cat.mu.Lock()
	defer cat.mu.Unlock()
	cur := cat.live.Load()
	if cur == nil {
		// The category is mid-creation by a concurrent first mutation that
		// has not published its first epoch yet; to this caller it does not
		// exist.
		return fmt.Errorf("%w: %q (registered: %v)", ErrUnknownCategory, name, db.Categories())
	}
	db.advance(cat, cur, nil, vertices)
	return nil
}

// newEpoch builds a category's bulk epoch over vertices: each cell's derived
// object indexes from scratch over the vertices that cell owns (one cell,
// all of them, on an ordinary DB). Counter 0; a replacing caller bumps it.
func (db *DB) newEpoch(vertices []int32) *epoch {
	ep := &epoch{}
	for _, part := range db.splitByOwner(nil, vertices) {
		b := db.eng.NewBinding(knn.NewObjectSet(db.g, part), db.bindKinds)
		ep.parts = append(ep.parts, b)
		ep.objects += b.Objs.Len()
	}
	return ep
}

// advance derives cur's successor and publishes it with one store: the delta
// is split by owning cell into cat's scratch, only the touched cells get a
// next binding (Engine.NextBinding: the object set only) and the rest are
// carried by pointer, so readers see every cell move together or not at
// all. An empty effective delta publishes nothing — no new epoch. Called
// with cat.mu held. A one-cell mutation allocates six times: the epoch,
// its parts, and the binding with its set's directory, touched pages and
// effective delta.
func (db *DB) advance(cat *category, cur *epoch, add, remove []int32) {
	cat.adds, cat.removes = db.splitByOwner(cat.adds, add), db.splitByOwner(cat.removes, remove)
	adds, removes := cat.adds, cat.removes
	next := &epoch{n: cur.n + 1, parts: make([]*core.Binding, len(cur.parts))}
	changed := false
	for i, p := range cur.parts {
		if len(adds[i])+len(removes[i]) > 0 {
			p = db.eng.NextBinding(p, adds[i], removes[i])
		}
		next.parts[i] = p
		next.objects += p.Objs.Len()
		changed = changed || p != cur.parts[i]
	}
	if !changed {
		return
	}
	cat.live.Store(next)
}

// checkObjects validates the shared mutation inputs.
func (db *DB) checkObjects(name string, vertices []int32) error {
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrBadCategory)
	}
	n := int32(db.g.NumVertices())
	for _, v := range vertices {
		if v < 0 || v >= n {
			return fmt.Errorf("%w: object vertex %d (network has %d vertices)", ErrBadVertex, v, n)
		}
	}
	return nil
}

// category returns the named category, creating an empty one (no binding
// yet) if needed. A category only becomes visible to queries once its first
// binding is stored, but creation must happen under db.mu so two concurrent
// writers agree on one category (and one mutation lock) per name.
func (db *DB) category(name string) *category {
	db.mu.RLock()
	cat := db.cats[name]
	db.mu.RUnlock()
	if cat != nil {
		return cat
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if cat = db.cats[name]; cat == nil {
		cat = &category{}
		db.cats[name] = cat
	}
	return cat
}

// snapshot resolves a category name to its live epoch (the query-time pin).
func (db *DB) snapshot(name string) (*epoch, error) {
	db.mu.RLock()
	cat := db.cats[name]
	db.mu.RUnlock()
	if cat == nil {
		return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownCategory, name, db.Categories())
	}
	ep := cat.live.Load()
	if ep == nil {
		// The category is being created by a concurrent first mutation and
		// has no published epoch yet.
		return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownCategory, name, db.Categories())
	}
	return ep, nil
}

// NumObjects returns the number of objects currently live in the named
// category.
func (db *DB) NumObjects(name string) (int, error) {
	ep, err := db.snapshot(name)
	if err != nil {
		return 0, err
	}
	return ep.objects, nil
}

// Epoch returns the named category's live epoch number: 0 after the first
// registration, incremented by every InsertObjects or RemoveObjects that
// changed the set and by every RegisterObjects replacing an existing
// category (a bulk replacement advances the epoch even if the new set is
// identical). Two queries observing the same epoch observed the same
// object set — on a shard set too, where one counter versions every cell.
func (db *DB) Epoch(name string) (uint64, error) {
	ep, err := db.snapshot(name)
	if err != nil {
		return 0, err
	}
	return ep.n, nil
}
