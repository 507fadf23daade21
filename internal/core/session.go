package core

import (
	"fmt"

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
// association directory. A Binding is one immutable epoch of an object
// category: safe for concurrent use by any number of query sessions, never
// mutated after publication. Mutating the object set means deriving the
// next epoch with NextBinding (incremental, O(delta)) or building a fresh
// epoch 0 with NewBinding (bulk), then rebinding sessions to it; queries in
// flight keep the Binding they snapshotted and stay consistent.
type Binding struct {
	Objs *knn.ObjectSet
	// Epoch is the binding's version within its category: 0 for a bulk
	// build, predecessor+1 for each NextBinding derivation.
	Epoch uint64

	rt *rtree.Tree
	ol *gtree.OccurrenceList
	ad *road.AssociationDirectory
}

// NewBinding builds the derived object indexes required by kinds over objs
// — epoch 0 of a category, the bulk registration path. Kinds whose
// road-network index has not been built yet trigger the build (serialized
// by the engine mutex).
func (e *Engine) NewBinding(objs *knn.ObjectSet, kinds []MethodKind) *Binding {
	b := &Binding{Objs: objs}
	for _, k := range kinds {
		switch k {
		case IERCH, IERTNR, IERPHL:
			if b.rt == nil {
				b.rt = ier.NewObjectTree(e.G, objs)
			}
		case Gtree:
			if b.ol == nil {
				b.ol = e.GtreeIndex().NewOccurrenceList(objs)
			}
		case ROAD:
			if b.ad == nil {
				b.ad = e.ROADIndex().NewAssociationDirectory(objs)
			}
		}
	}
	return b
}

// NextBinding derives the next epoch of cur: cur's object set minus remove
// plus add, with every derived object index updated incrementally from
// cur's by the per-method maintainers — a copy-on-write R-tree clone with
// Insert/Delete, the occurrence list's and association directory's Next over
// the new object set (the one membership bitset every index of the epoch
// reads) — in O(delta) element work, never an O(set) reconstruction, though
// the occurrence list copies its flat leaf lists into fresh arrays (a memcpy
// of the set).
//
// cur is never mutated: queries pinned to it keep answering from their
// epoch. Vertices already present in add and absent in remove are ignored.
// When the effective delta is empty, cur itself is returned (no new epoch).
func (e *Engine) NextBinding(cur *Binding, add, remove []int32) *Binding {
	objs, added, removed := cur.Objs.WithDelta(add, remove)
	if len(added) == 0 && len(removed) == 0 {
		return cur
	}
	// Which derived indexes to maintain follows from which ones cur
	// carries, so the new epoch serves exactly the kinds the old one did.
	b := &Binding{Objs: objs, Epoch: cur.Epoch + 1}
	if cur.rt != nil {
		rt := cur.rt.Clone()
		for _, v := range removed {
			rt.Delete(v, geo.Point{X: e.G.X[v], Y: e.G.Y[v]})
		}
		for _, v := range added {
			rt.Insert(v, geo.Point{X: e.G.X[v], Y: e.G.Y[v]})
		}
		b.rt = rt
	}
	if cur.ol != nil {
		b.ol = cur.ol.Next(e.GtreeIndex(), objs, added, removed)
	}
	if cur.ad != nil {
		b.ad = cur.ad.Next(e.ROADIndex(), objs, added, removed)
	}
	return b
}

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
		return &ierSession{ier.NewWithTree("IER-CH", e.G, b.Objs, b.rt, &ier.OracleFactory{Oracle: e.CHIndex().NewSearcher()})}, nil
	case IERTNR:
		return &ierSession{ier.NewWithTree("IER-TNR", e.G, b.Objs, b.rt, &ier.OracleFactory{Oracle: e.TNRIndex().NewQuerier()})}, nil
	case IERPHL:
		// Each session owns a phl.Source, the labeling's pinned-source
		// scratch (4-8 B/vertex); the labeling itself is shared.
		return &ierSession{ier.NewWithTree("IER-PHL", e.G, b.Objs, b.rt, e.PHLIndex().NewSource())}, nil
	case Gtree:
		return gtreeSession{gtree.NewKNN(e.GtreeIndex(), b.ol)}, nil
	case ROAD:
		return roadSession{road.NewKNN(e.ROADIndex(), b.ad)}, nil
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

func (s *ierSession) Rebind(b *Binding) { s.IER.Rebind(b.Objs, b.rt) }

// gtreeSession and roadSession embed their methods through aliases, since
// an embedded field named KNN would shadow the KNN method.
type (
	gtreeKNN = gtree.KNN
	roadKNN  = road.KNN
)

type gtreeSession struct{ *gtreeKNN }

func (s gtreeSession) Rebind(b *Binding) { s.gtreeKNN.SetObjects(b.ol) }

type roadSession struct{ *roadKNN }

func (s roadSession) Rebind(b *Binding) { s.roadKNN.SetObjects(b.ad) }

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
