// Package core is the library's engine room: an Engine that owns a road
// network, lazily builds each road-network index exactly once (recording
// build time and size), and manufactures query sessions — any of the
// paper's five algorithms, with IER composable over any distance oracle —
// bound to interchangeable object sets (the decoupled-index design of
// Section 2.2).
//
// The public, concurrency-safe entry point to the library is pkg/rnknn: its
// DB facade pools the query sessions manufactured here (NewSession) and
// multiplexes concurrent callers over one Engine. The experiment harness
// builds its sessions the same way, one goroutine each:
//
//	g := gen.Network(gen.NetworkSpec{Name: "city", Rows: 96, Cols: 120, Seed: 1})
//	e := core.New(g)
//	hospitals := knn.NewObjectSet(g, hospitalVertices)
//	kinds := []core.MethodKind{core.IERPHL}
//	s, _ := e.NewSession(core.IERPHL, e.NewBinding(hospitals, kinds))
//	results := s.KNN(query, 10)
//
// Two tables drive the engine: indexes holds one row per road-network
// index (its name, the index it is built over, the dependencies its
// snapshot section declares, and its build and decode funcs) and kinds one
// row per method kind (its name and the index it runs on). Building,
// sizing, saving, loading and BuiltIndexes all walk them, so a new index
// is one indexes row (with its indexID constant) plus one typed getter.
//
// Index construction is serialized by an internal mutex, so concurrent
// sessions may trigger lazy builds safely. A built index holds no query
// state; the sessions returned by NewSession are each single-goroutine
// objects.
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"rnknn/internal/ch"
	"rnknn/internal/graph"
	"rnknn/internal/gtree"
	"rnknn/internal/ine"
	"rnknn/internal/phl"
	"rnknn/internal/road"
	"rnknn/internal/silc"
	"rnknn/internal/snapio"
	"rnknn/internal/tnr"
)

// MethodKind identifies a kNN method configuration.
type MethodKind int

const (
	// INE is Incremental Network Expansion (Section 3.1).
	INE MethodKind = iota
	// IERDijk is IER with a resumable Dijkstra oracle (the original IER).
	IERDijk
	// IERCH is IER with a Contraction Hierarchies oracle.
	IERCH
	// IERTNR is IER with a Transit Node Routing oracle.
	IERTNR
	// IERPHL is IER with the hub-labeling (PHL) oracle.
	IERPHL
	// IERGt is IER with the materialized G-tree oracle (MGtree).
	IERGt
	// Gtree is the G-tree kNN algorithm (Section 3.5, Algorithm 3).
	Gtree
	// ROAD is Route Overlay and Association Directory (Section 3.4).
	ROAD
	// DisBrw is Distance Browsing in its DB-ENN form (Appendix A.1.1).
	DisBrw
	// DisBrwOH is Distance Browsing with the original Object Hierarchy.
	DisBrwOH
	numKinds
)

// Kinds lists every method kind in display order.
func Kinds() []MethodKind {
	return []MethodKind{INE, IERDijk, IERCH, IERTNR, IERPHL, IERGt, Gtree, ROAD, DisBrw, DisBrwOH}
}

func (k MethodKind) String() string {
	if k >= 0 && k < numKinds {
		return kinds[k].name
	}
	return fmt.Sprintf("MethodKind(%d)", int(k))
}

// kinds holds, per method kind, its display name and the road-network
// index it runs on (noIndex: the graph alone).
var kinds = [numKinds]struct {
	name string
	on   indexID
}{
	INE:      {"INE", noIndex},
	IERDijk:  {"IER-Dijk", noIndex},
	IERCH:    {"IER-CH", idxCH},
	IERTNR:   {"IER-TNR", idxTNR},
	IERPHL:   {"IER-PHL", idxPHL},
	IERGt:    {"IER-Gt", idxGtree},
	Gtree:    {"Gtree", idxGtree},
	ROAD:     {"ROAD", idxROAD},
	DisBrw:   {"DisBrw", idxSILC},
	DisBrwOH: {"DisBrw-OH", idxSILC},
}

// index is what the engine itself needs of a built road-network index: its
// snapshot section encoding and its size.
type index interface {
	io.WriterTo
	SizeBytes() int
}

// indexID numbers the road-network indexes in snapshot section order.
type indexID int

const (
	idxGtree indexID = iota
	idxROAD
	idxSILC
	idxCH
	idxPHL
	idxTNR
	numIndexes
	noIndex indexID = -1
)

// indexes holds one row per road-network index, in section order: its name
// (the snapshot section and BuiltIndexes key), the index it is built over,
// the dependencies its section declares, and its build and decode funcs.
// Only TNR declares CH: PHL is built over CH too but decodes without it,
// and declaring it would change the bytes of every snapshot with PHL.
var indexes = [numIndexes]struct {
	name  string
	over  indexID
	deps  []string
	build func(g *graph.Graph, over index) index
	read  func(sr *snapio.Source, g *graph.Graph) (index, error)
}{
	idxGtree: {"Gtree", noIndex, nil,
		func(g *graph.Graph, _ index) index { return gtree.Build(g) },
		func(sr *snapio.Source, g *graph.Graph) (index, error) { return gtree.Read(sr, g) }},
	idxROAD: {"ROAD", noIndex, nil,
		func(g *graph.Graph, _ index) index { return road.Build(g) },
		func(sr *snapio.Source, g *graph.Graph) (index, error) { return road.Read(sr, g) }},
	idxSILC: {"SILC", noIndex, nil,
		func(g *graph.Graph, _ index) index { return silc.Build(g) },
		func(sr *snapio.Source, g *graph.Graph) (index, error) { return silc.Read(sr, g) }},
	idxCH: {"CH", noIndex, nil,
		func(g *graph.Graph, _ index) index { return ch.Build(g) },
		func(sr *snapio.Source, g *graph.Graph) (index, error) { return ch.Read(sr, g) }},
	idxPHL: {"PHL", idxCH, nil,
		func(g *graph.Graph, h index) index { return phl.Build(g, h.(*ch.Index)) },
		func(sr *snapio.Source, g *graph.Graph) (index, error) { return phl.Read(sr, g.NumVertices()) }},
	idxTNR: {"TNR", idxCH, []string{"CH"},
		func(g *graph.Graph, h index) index { return tnr.Build(g, h.(*ch.Index)) },
		func(sr *snapio.Source, g *graph.Graph) (index, error) { return tnr.Read(sr, g.NumVertices()) }},
}

// slot holds one index of an engine: the index once built or loaded, its
// construction (or snapshot decode) time, and whether it was loaded.
type slot struct {
	x      index
	took   time.Duration
	loaded bool
}

// Engine owns one road network and its lazily built indexes. Each index is
// built with the parameters it derives from the network size (matching the
// paper's choices).
type Engine struct {
	G *graph.Graph

	// mu serializes lazy index construction and guards idx, so concurrent
	// query sessions may trigger first-use builds safely. The built indexes
	// themselves are immutable and read lock-free.
	mu  sync.Mutex
	idx [numIndexes]slot

	// fp memoizes the graph fingerprint (see Fingerprint).
	fpOnce sync.Once
	fp     uint64

	// hops memoizes INE's chain table (see INEHops).
	hopsOnce sync.Once
	hops     *ine.Hops
}

// New creates an engine over g with default options.
func New(g *graph.Graph) *Engine {
	return &Engine{G: g}
}

// get returns index i, building it (and the index it is built over) on
// first use.
func (e *Engine) get(i indexID) index {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.getLocked(i)
}

func (e *Engine) getLocked(i indexID) index {
	s := &e.idx[i]
	if s.x == nil {
		var over index
		if o := indexes[i].over; o != noIndex {
			over = e.getLocked(o)
		}
		start := time.Now()
		s.x = indexes[i].build(e.G, over)
		s.took = time.Since(start)
	}
	return s.x
}

// INEHops returns INE's chain table over the engine's graph, building it on
// first use; every INE session shares it. It is derived in O(|V|+|E|) and
// never persisted, so an engine that runs no INE query never builds it.
func (e *Engine) INEHops() *ine.Hops {
	e.hopsOnce.Do(func() { e.hops = ine.BuildHops(e.G) })
	return e.hops
}

// GtreeIndex returns the engine's G-tree, building it on first use.
func (e *Engine) GtreeIndex() *gtree.Index { return e.get(idxGtree).(*gtree.Index) }

// ROADIndex returns the engine's ROAD index, building it on first use.
func (e *Engine) ROADIndex() *road.Index { return e.get(idxROAD).(*road.Index) }

// SILCIndex returns the engine's SILC index, building it on first use.
// Beware the O(|V|^2 log |V|) build; the paper limits SILC to the smaller
// networks and so does the experiment harness.
func (e *Engine) SILCIndex() *silc.Index { return e.get(idxSILC).(*silc.Index) }

// CHIndex returns the engine's contraction hierarchy, building it on first
// use.
func (e *Engine) CHIndex() *ch.Index { return e.get(idxCH).(*ch.Index) }

// PHLIndex returns the engine's hub labeling, building it on first use (the
// contraction hierarchy is shared with CHIndex).
func (e *Engine) PHLIndex() *phl.Index { return e.get(idxPHL).(*phl.Index) }

// TNRIndex returns the engine's transit-node index, building it on first
// use (the contraction hierarchy is shared with CHIndex).
func (e *Engine) TNRIndex() *tnr.Index { return e.get(idxTNR).(*tnr.Index) }

// EnsureIndex builds the road-network index a method kind depends on, if
// any (pkg/rnknn calls this at Open so queries never pay construction).
func (e *Engine) EnsureIndex(kind MethodKind) {
	if on := kinds[kind].on; on != noIndex {
		e.get(on)
	}
}

// IndexInfo describes one built road-network index for stats reporting.
type IndexInfo struct {
	// BuildTime is the construction time, or the snapshot decode time when
	// Loaded is true.
	BuildTime time.Duration
	SizeBytes int
	// Loaded reports that the index was installed by LoadIndexesData instead of
	// being built.
	Loaded bool
}

// BuiltIndexes reports every index built or loaded so far by name ("Gtree",
// "ROAD", "SILC", "CH", "PHL", "TNR") — the observability hook behind
// pkg/rnknn's DB.Stats and the harness's construction-time tables. Safe
// for concurrent use.
func (e *Engine) BuiltIndexes() map[string]IndexInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := map[string]IndexInfo{}
	for i, s := range e.idx {
		if s.x != nil {
			out[indexes[i].name] = IndexInfo{s.took, s.x.SizeBytes(), s.loaded}
		}
	}
	return out
}

// IndexSize returns the built size in bytes of the road-network index a
// method kind depends on (the graph itself for INE and IER-Dijk, mirroring
// the paper's "INE uses only the original graph" baseline in Figure 8).
func (e *Engine) IndexSize(kind MethodKind) int {
	if on := kinds[kind].on; on != noIndex {
		return e.get(on).SizeBytes()
	}
	return graphSizeBytes(e.G)
}

func graphSizeBytes(g *graph.Graph) int {
	return len(g.Offsets)*4 + len(g.Targets)*4 + len(g.DistW)*4 + len(g.TimeW)*4 + len(g.X)*16
}
