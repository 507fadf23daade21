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
// Index construction is serialized by an internal mutex, so concurrent
// sessions may trigger lazy builds safely. A built index holds no query
// state; the sessions returned by NewSession are each single-goroutine
// objects.
package core

import (
	"fmt"
	"sync"
	"time"

	"rnknn/internal/ch"
	"rnknn/internal/graph"
	"rnknn/internal/gtree"
	"rnknn/internal/phl"
	"rnknn/internal/road"
	"rnknn/internal/silc"
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
	switch k {
	case INE:
		return "INE"
	case IERDijk:
		return "IER-Dijk"
	case IERCH:
		return "IER-CH"
	case IERTNR:
		return "IER-TNR"
	case IERPHL:
		return "IER-PHL"
	case IERGt:
		return "IER-Gt"
	case Gtree:
		return "Gtree"
	case ROAD:
		return "ROAD"
	case DisBrw:
		return "DisBrw"
	case DisBrwOH:
		return "DisBrw-OH"
	}
	return fmt.Sprintf("MethodKind(%d)", int(k))
}

// Engine owns one road network and its lazily built indexes. Each index is
// built with the parameters it derives from the network size (matching the
// paper's choices).
type Engine struct {
	G *graph.Graph

	// mu serializes lazy index construction (and guards BuildTimes), so
	// concurrent query sessions may trigger first-use builds safely. The
	// built indexes themselves are immutable and read lock-free.
	mu   sync.Mutex
	gt   *gtree.Index
	rd   *road.Index
	sc   *silc.Index
	chx  *ch.Index
	phlx *phl.Index
	tnrx *tnr.Index

	// BuildTimes records the wall-clock construction time of each index by
	// name ("Gtree", "ROAD", "SILC", "CH", "PHL", "TNR") — or, for indexes
	// installed by LoadIndexesData, the snapshot decode time. Read it only
	// after the builds of interest have completed (single-goroutine
	// harness code); concurrent readers use BuiltIndexes.
	BuildTimes map[string]time.Duration

	// loaded marks indexes that came from a snapshot (LoadIndexesData) rather
	// than being constructed; guarded by mu, surfaced via IndexInfo.Loaded.
	loaded map[string]bool

	// fp memoizes the graph fingerprint (see Fingerprint).
	fpOnce sync.Once
	fp     uint64
}

// New creates an engine over g with default options.
func New(g *graph.Graph) *Engine {
	return &Engine{G: g, BuildTimes: map[string]time.Duration{}}
}

func (e *Engine) timed(name string, f func()) {
	start := time.Now()
	f()
	e.BuildTimes[name] = time.Since(start)
}

// GtreeIndex returns the engine's G-tree, building it on first use.
func (e *Engine) GtreeIndex() *gtree.Index {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gtreeLocked()
}

func (e *Engine) gtreeLocked() *gtree.Index {
	if e.gt == nil {
		e.timed("Gtree", func() {
			e.gt = gtree.Build(e.G)
		})
	}
	return e.gt
}

// ROADIndex returns the engine's ROAD index, building it on first use.
func (e *Engine) ROADIndex() *road.Index {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rd == nil {
		e.timed("ROAD", func() {
			e.rd = road.Build(e.G)
		})
	}
	return e.rd
}

// SILCIndex returns the engine's SILC index, building it on first use.
// Beware the O(|V|^2 log |V|) build; the paper limits SILC to the smaller
// networks and so does the experiment harness.
func (e *Engine) SILCIndex() *silc.Index {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sc == nil {
		e.timed("SILC", func() {
			e.sc = silc.Build(e.G)
		})
	}
	return e.sc
}

// CHIndex returns the engine's contraction hierarchy, building it on first
// use.
func (e *Engine) CHIndex() *ch.Index {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.chLocked()
}

func (e *Engine) chLocked() *ch.Index {
	if e.chx == nil {
		e.timed("CH", func() { e.chx = ch.Build(e.G) })
	}
	return e.chx
}

// PHLIndex returns the engine's hub labeling, building it on first use (the
// contraction hierarchy is shared with CHIndex).
func (e *Engine) PHLIndex() *phl.Index {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.phlx == nil {
		hierarchy := e.chLocked()
		e.timed("PHL", func() { e.phlx = phl.Build(e.G, hierarchy) })
	}
	return e.phlx
}

// TNRIndex returns the engine's transit-node index, building it on first
// use (the contraction hierarchy is shared with CHIndex).
func (e *Engine) TNRIndex() *tnr.Index {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tnrx == nil {
		hierarchy := e.chLocked()
		e.timed("TNR", func() { e.tnrx = tnr.Build(e.G, hierarchy) })
	}
	return e.tnrx
}

// EnsureIndex builds the road-network index a method kind depends on, if
// any (pkg/rnknn calls this at Open so queries never pay construction).
func (e *Engine) EnsureIndex(kind MethodKind) {
	switch kind {
	case IERCH:
		e.CHIndex()
	case IERTNR:
		e.TNRIndex()
	case IERPHL:
		e.PHLIndex()
	case IERGt, Gtree:
		e.GtreeIndex()
	case ROAD:
		e.ROADIndex()
	case DisBrw, DisBrwOH:
		e.SILCIndex()
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

// BuiltIndexes reports every index built so far by name — the observability
// hook behind pkg/rnknn's DB.Stats. Safe for concurrent use.
func (e *Engine) BuiltIndexes() map[string]IndexInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := map[string]IndexInfo{}
	if e.gt != nil {
		out["Gtree"] = IndexInfo{e.BuildTimes["Gtree"], e.gt.SizeBytes(), e.loaded["Gtree"]}
	}
	if e.rd != nil {
		out["ROAD"] = IndexInfo{e.BuildTimes["ROAD"], e.rd.SizeBytes(), e.loaded["ROAD"]}
	}
	if e.sc != nil {
		out["SILC"] = IndexInfo{e.BuildTimes["SILC"], e.sc.SizeBytes(), e.loaded["SILC"]}
	}
	if e.chx != nil {
		out["CH"] = IndexInfo{e.BuildTimes["CH"], e.chx.SizeBytes(), e.loaded["CH"]}
	}
	if e.phlx != nil {
		out["PHL"] = IndexInfo{e.BuildTimes["PHL"], e.phlx.SizeBytes(), e.loaded["PHL"]}
	}
	if e.tnrx != nil {
		out["TNR"] = IndexInfo{e.BuildTimes["TNR"], e.tnrx.SizeBytes(), e.loaded["TNR"]}
	}
	return out
}

// IndexSize returns the built size in bytes of the road-network index a
// method kind depends on (the graph itself for INE and IER-Dijk, mirroring
// the paper's "INE uses only the original graph" baseline in Figure 8).
func (e *Engine) IndexSize(kind MethodKind) int {
	switch kind {
	case INE, IERDijk:
		return graphSizeBytes(e.G)
	case IERCH:
		return e.CHIndex().SizeBytes()
	case IERTNR:
		return e.TNRIndex().SizeBytes()
	case IERPHL:
		return e.PHLIndex().SizeBytes()
	case IERGt, Gtree:
		return e.GtreeIndex().SizeBytes()
	case ROAD:
		return e.ROADIndex().SizeBytes()
	case DisBrw, DisBrwOH:
		return e.SILCIndex().SizeBytes()
	}
	return 0
}

func graphSizeBytes(g *graph.Graph) int {
	return len(g.Offsets)*4 + len(g.Targets)*4 + len(g.DistW)*4 + len(g.TimeW)*4 + len(g.X)*16
}
