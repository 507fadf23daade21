package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"rnknn/internal/geo"
	"rnknn/internal/gtree"
	"rnknn/internal/ier"
	"rnknn/internal/ine"
	"rnknn/internal/knn"
	"rnknn/internal/road"
	"rnknn/internal/rtree"
)

// Binding bundles an object set with the derived object indexes the method
// kinds need (the decoupled-index design of Section 2.2): the Euclidean
// R-tree for the IER family, the G-tree occurrence list and the ROAD
// association directory. A Binding is one epoch of an object category,
// safe for concurrent use by any number of query sessions. Its object set
// and epoch are fixed at publication; each derived index is either built
// then or filled in once, by the first query that reads it, and nothing a
// query has read ever changes. Mutating the object set means deriving the
// next epoch with NextBinding (which derives only the object set) or
// building a fresh epoch 0 with NewBinding (bulk), then rebinding sessions
// to it; queries in flight keep the Binding they snapshotted and stay
// consistent.
type Binding struct {
	// Objs points at objs, the epoch's object set, which the binding holds
	// by value (NewBinding copies the caller's set; the copy shares its
	// pages).
	Objs *knn.ObjectSet
	// Epoch is the binding's version within its category: 0 for a bulk
	// build, predecessor+1 for each NextBinding derivation.
	Epoch uint64

	e *Engine
	// step is the effective delta from the predecessor's object set.
	step delta
	// mu serializes the derivations of b's pending indexes: concurrent
	// first readers of one index share its one derivation.
	mu sync.Mutex
	// derivations counts the indexes derived under mu (tests hold it to
	// one per pending index).
	derivations int32
	rt          derived[rtree.Tree]
	ol          derived[gtree.OccurrenceList]
	ad          derived[road.AssociationDirectory]
	objs        knn.ObjectSet
}

// delta is an effective change of an object set, in the form
// knn.ObjectSet.WithDelta returns it: sorted lists, removed present in the
// set it applies to and added absent after the removals, so a vertex
// removed and re-added is in both. A composed delta is disjoint.
type delta struct{ added, removed []int32 }

// derived is one derived object index of a Binding: built (ready), or
// pending (delta set) — derivable from base, the newest built index of its
// kind when the binding was published, plus delta, the change composed
// since base was built; with no base it is built in bulk from the
// binding's own set. base and delta are set before publication and never
// change, so NextBinding reads them without a lock.
type derived[T any] struct {
	ready atomic.Pointer[T]
	base  *T
	delta *delta
}

// get returns the index, deriving it with build on first use; nil when the
// binding carries no index of this kind. Once built it costs one atomic
// load.
func (d *derived[T]) get(b *Binding, build func(b *Binding, base *T, dl *delta) *T) *T {
	if x := d.ready.Load(); x != nil || d.delta == nil {
		return x
	}
	return d.derive(b, build)
}

// derive is get's slow path: the one derivation, under b.mu.
func (d *derived[T]) derive(b *Binding, build func(b *Binding, base *T, dl *delta) *T) *T {
	b.mu.Lock()
	defer b.mu.Unlock()
	if x := d.ready.Load(); x != nil {
		return x
	}
	x := build(b, d.base, d.delta)
	b.derivations++
	d.ready.Store(x)
	return x
}

// follow sets d up as the successor of cur, the same index one epoch
// earlier in b's category. It does no index work: the newest built index
// becomes the base and b's step is composed onto its delta. A delta that
// cancels out reuses the base as is, and one that reaches b's object count
// drops the base, so the index is built in bulk if anyone reads it: never
// more work than deriving every epoch eagerly.
//
// With undo set, a step that undoes the delta cur's own index was derived
// with (the insert-then-remove of a churning category) also reuses that
// index's base. That pays where a derivation copies the whole index, as the
// occurrence list's and the association directory's do; an R-tree derived
// from its bulk-packed base splits full leaves on every insert, so it
// keeps deriving from its newest version.
func (d *derived[T]) follow(cur *derived[T], b *Binding, memo *composed, undo bool) {
	base, dl := cur.ready.Load(), &b.step
	switch {
	case base != nil:
		// An undoing step removes what cur's delta added and adds what it
		// removed, so the lengths match first; compose confirms it.
		if undo && cur.base != nil && len(cur.delta.added) == len(dl.removed) &&
			len(cur.delta.removed) == len(dl.added) && memo.compose(cur.delta, b) == nil {
			d.ready.Store(cur.base)
			return
		}
	case cur.delta == nil:
		return // the binding carries no index of this kind
	case cur.base == nil:
		d.delta = dl
		return
	default:
		if base, dl = cur.base, memo.compose(cur.delta, b); dl == nil {
			d.ready.Store(base)
			return
		}
	}
	d.delta = dl
	if len(dl.added)+len(dl.removed) < b.Objs.Len() {
		d.base = base
	}
}

// composed memoizes compose within one NextBinding: kinds pending from the
// same base epoch share their delta, and compose it once.
type composed struct{ from, to *delta }

func (m *composed) compose(from *delta, b *Binding) *delta {
	if m.from != from {
		m.from, m.to = from, compose(from, &b.step, b.Objs)
	}
	return m.to
}

// compose returns the delta from a base set to objs, or nil when there is
// none: d takes the base to the previous set and step takes that to objs.
// A vertex inserted and later removed, or removed and later re-inserted,
// is in neither list.
func compose(d, step *delta, objs *knn.ObjectSet) *delta {
	A, R, a, r := d.added, d.removed, step.added, step.removed
	has := func(s []int32, v int32) bool {
		_, ok := slices.BinarySearch(s, v)
		return ok
	}
	var small [16]int32
	buf := small[:0]
	// The base held v exactly when v is in R, or, for a v d leaves alone,
	// when the step removes it; objs holds it exactly when Contains says so.
	for _, v := range A {
		if !has(R, v) && objs.Contains(v) {
			buf = append(buf, v)
		}
	}
	for _, v := range a {
		if !has(A, v) && !has(R, v) && !has(r, v) {
			buf = append(buf, v)
		}
	}
	n := len(buf)
	for _, v := range R {
		if !objs.Contains(v) {
			buf = append(buf, v)
		}
	}
	for _, v := range r {
		if !has(A, v) && !has(R, v) && !objs.Contains(v) {
			buf = append(buf, v)
		}
	}
	if len(buf) == 0 {
		return nil
	}
	out := make([]int32, len(buf))
	copy(out, buf)
	c := &delta{added: out[:n:n], removed: out[n:]}
	slices.Sort(c.added)
	slices.Sort(c.removed)
	return c
}

// NewBinding builds the derived object indexes required by kinds over objs
// — epoch 0 of a category, the bulk registration path. Kinds whose
// road-network index has not been built yet trigger the build (serialized
// by the engine mutex).
func (e *Engine) NewBinding(objs *knn.ObjectSet, kinds []MethodKind) *Binding {
	b := &Binding{objs: *objs, e: e}
	b.Objs = &b.objs
	for _, k := range kinds {
		switch k {
		case IERCH, IERTNR, IERPHL:
			if b.rt.ready.Load() == nil {
				b.rt.ready.Store(buildTree(b, nil, nil))
			}
		case Gtree:
			if b.ol.ready.Load() == nil {
				b.ol.ready.Store(buildOccurrences(b, nil, nil))
			}
		case ROAD:
			if b.ad.ready.Load() == nil {
				b.ad.ready.Store(buildDirectory(b, nil, nil))
			}
		}
	}
	return b
}

// NextBinding derives the next epoch of cur: cur's object set minus remove
// plus add (knn.ObjectSet.WithDelta: the membership directory, the touched
// pages and the effective delta), which the new binding holds by value:
// four allocations with the binding, whatever the set's size. It does no
// index work. Each derived index cur carries becomes pending in the new epoch,
// and the first query that reads it brings it up to date from the newest
// built index of its kind by the per-method maintainers: an R-tree Clone
// whose Insert/Delete path-copy the nodes they touch, and the occurrence
// list's and association directory's Next over the new object set (whose
// paged membership bits every index of the epoch reads). A binding keeps
// one base index and one composed delta per kind, never its predecessors.
//
// cur is never mutated: queries pinned to it keep answering from their
// epoch. Vertices already present in add and absent in remove are ignored.
// When the effective delta is empty, cur itself is returned (no new epoch).
func (e *Engine) NextBinding(cur *Binding, add, remove []int32) *Binding {
	objs, added, removed := cur.Objs.WithDelta(add, remove)
	if len(added) == 0 && len(removed) == 0 {
		return cur
	}
	b := &Binding{objs: objs, Epoch: cur.Epoch + 1, e: e, step: delta{added, removed}}
	b.Objs = &b.objs
	var memo composed
	b.rt.follow(&cur.rt, b, &memo, false)
	b.ol.follow(&cur.ol, b, &memo, true)
	b.ad.follow(&cur.ad, b, &memo, true)
	return b
}

// The derivations: from base plus the delta by each index's maintainer, or
// in bulk from b's own set when there is no base. A tree is frozen before
// it is published, so the derivations that clone it may run at once.

func buildTree(b *Binding, base *rtree.Tree, dl *delta) *rtree.Tree {
	var rt *rtree.Tree
	if base == nil {
		rt = ier.NewObjectTree(b.e.G, b.Objs)
	} else {
		rt = base.Clone()
		for _, v := range dl.removed {
			rt.Delete(v, geo.Point{X: b.e.G.X[v], Y: b.e.G.Y[v]})
		}
		for _, v := range dl.added {
			rt.Insert(v, geo.Point{X: b.e.G.X[v], Y: b.e.G.Y[v]})
		}
	}
	rt.Freeze()
	return rt
}

func buildOccurrences(b *Binding, base *gtree.OccurrenceList, dl *delta) *gtree.OccurrenceList {
	if base == nil {
		return b.e.GtreeIndex().NewOccurrenceList(b.Objs)
	}
	return base.Next(b.e.GtreeIndex(), b.Objs, dl.added, dl.removed)
}

func buildDirectory(b *Binding, base *road.AssociationDirectory, dl *delta) *road.AssociationDirectory {
	if base == nil {
		return b.e.ROADIndex().NewAssociationDirectory(b.Objs)
	}
	return base.Next(b.e.ROADIndex(), b.Objs, dl.added, dl.removed)
}

// tree, occurrences and directory return b's derived indexes, deriving a
// pending one on first use; nil when b's kinds need none of that kind.
func (b *Binding) tree() *rtree.Tree { return b.rt.get(b, buildTree) }

func (b *Binding) occurrences() *gtree.OccurrenceList { return b.ol.get(b, buildOccurrences) }

func (b *Binding) directory() *road.AssociationDirectory { return b.ad.get(b, buildDirectory) }

// Session is a single-goroutine query session: a knn.Method whose object
// binding can be swapped between queries. pkg/rnknn pools sessions per
// method kind and rebinds each one to the live Binding snapshot before
// every query, which is what makes object-set swaps safe while queries are
// in flight. Every kind streams its answer (knn.Streamer, behind KNNSeq)
// and polls an interrupt hook (knn.Interruptible, behind ctx cancellation).
type Session interface {
	knn.Method
	knn.Streamer
	knn.Interruptible
	// Rebind points the session at b's object set and derived indexes. It
	// must only be called between queries.
	Rebind(b *Binding)
}

// NewSession manufactures a fresh query session of the given kind bound to
// b. Sessions carry their own search state (and, for IER-CH, IER-TNR and
// IER-PHL, their own per-session oracle state), so sessions of any mix of
// kinds may run concurrently as long as each individual session stays on
// one goroutine.
func (e *Engine) NewSession(kind MethodKind, b *Binding) (Session, error) {
	switch kind {
	case INE:
		return ineSession{ine.NewWithHops(e.INEHops(), b.Objs)}, nil
	case IERCH:
		// Each session owns a CH searcher: the bidirectional Dijkstra state
		// is per-session, the hierarchy itself is shared.
		return &ierSession{ier.NewWithTree("IER-CH", e.G, b.Objs, b.tree(), &ier.OracleFactory{Oracle: e.CHIndex().NewSearcher()})}, nil
	case IERTNR:
		return &ierSession{ier.NewWithTree("IER-TNR", e.G, b.Objs, b.tree(), &ier.OracleFactory{Oracle: e.TNRIndex().NewQuerier()})}, nil
	case IERPHL:
		// Each session owns a phl.Source, the labeling's pinned-source
		// scratch (4-8 B/vertex); the labeling itself is shared.
		return &ierSession{ier.NewWithTree("IER-PHL", e.G, b.Objs, b.tree(), e.PHLIndex().NewSource())}, nil
	case Gtree:
		return gtreeSession{gtree.NewKNN(e.GtreeIndex(), b.occurrences())}, nil
	case ROAD:
		return roadSession{road.NewKNN(e.ROADIndex(), b.directory())}, nil
	default:
		return nil, fmt.Errorf("core: unknown method kind %v", kind)
	}
}

// The session wrappers embed the concrete methods (promoting KNN, Name,
// KNNStream, SetInterrupt, and RangeAppend and KNNWithinAppend where
// available) and adapt Rebind to each method's own object-swap hook.

type ineSession struct{ *ine.INE }

func (s ineSession) Rebind(b *Binding) { s.INE.SetObjects(b.Objs) }

type ierSession struct{ *ier.IER }

func (s *ierSession) Rebind(b *Binding) { s.IER.Rebind(b.Objs, b.tree()) }

// gtreeSession and roadSession embed their methods through aliases, since
// an embedded field named KNN would shadow the KNN method.
type (
	gtreeKNN = gtree.KNN
	roadKNN  = road.KNN
)

type gtreeSession struct{ *gtreeKNN }

func (s gtreeSession) Rebind(b *Binding) { s.gtreeKNN.SetObjects(b.occurrences()) }

type roadSession struct{ *roadKNN }

func (s roadSession) Rebind(b *Binding) { s.roadKNN.SetObjects(b.directory()) }

var (
	// Range queries: INE's expansion, and Euclidean restriction over every
	// IER oracle (the promoted RangeAppend of the embedded methods); and
	// kNN cut off at a bound by the same two stop rules (the promoted
	// KNNWithinAppend, which pkg/rnknn's shard fan calls).
	_ knn.RangeMethod   = ineSession{}
	_ knn.RangeMethod   = (*ierSession)(nil)
	_ knn.BoundedMethod = ineSession{}
	_ knn.BoundedMethod = (*ierSession)(nil)
	// Shared-expansion batch execution: INE's multi-source frontier, through
	// the promoted KNNGroupAppend.
	_ knn.BatchMethod = ineSession{}
)
