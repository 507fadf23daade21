package exp

import (
	"fmt"
	"time"

	"rnknn/internal/core"
	"rnknn/internal/gtree"
	"rnknn/internal/ier"
	"rnknn/internal/knn"
	"rnknn/internal/silc"
)

// method is one row of a query figure: a kind the engine serves, or one of
// the forms the serving build does not carry, which the harness builds
// itself: IER over the Dijkstra and G-tree oracles, and the two forms of
// Distance Browsing over the harness's own SILC index (silcIndex).
type method struct {
	name string
	kind core.MethodKind
	// oracle builds the distance oracle of an IER form; nil otherwise.
	oracle func(e *core.Engine) knn.SourceFactory
	// browse builds a Distance Browsing form; nil otherwise.
	browse func(x *silc.Index, objs *knn.ObjectSet) knn.Method
}

func (m method) String() string { return m.name }

// served lists served kinds as figure rows.
func served(kinds ...core.MethodKind) []method {
	out := make([]method, len(kinds))
	for i, k := range kinds {
		out[i] = method{name: k.String(), kind: k}
	}
	return out
}

var (
	// IER-Dijk is the original IER: a resumable Dijkstra search from the
	// query vertex (Figure 4). IER-Gt verifies candidates on the
	// materialized G-tree (MGtree), over the engine's own G-tree.
	ierDijk = method{name: "IER-Dijk", oracle: func(e *core.Engine) knn.SourceFactory {
		return &ier.DijkstraFactory{G: e.G}
	}}
	ierGt = method{name: "IER-Gt", oracle: func(e *core.Engine) knn.SourceFactory {
		return &gtree.Factory{Idx: e.GtreeIndex()}
	}}

	// The two forms of Distance Browsing: DB-ENN (Appendix A.1.1), and the
	// original Object Hierarchy (Algorithm 1).
	disBrw = method{name: "DisBrw", browse: func(x *silc.Index, objs *knn.ObjectSet) knn.Method {
		return silc.NewDBENN(x, objs)
	}}
	disBrwOH = method{name: "DisBrw-OH", browse: func(x *silc.Index, objs *knn.ObjectSet) knn.Method {
		return silc.NewDisBrw(x, x.NewObjectHierarchy(objs, 0))
	}}
)

// ierVariants are the rows of the IER oracle figures (Figures 4 and 23).
var ierVariants = append([]method{ierDijk, ierGt}, served(core.IERPHL, core.IERTNR, core.IERCH)...)

// mustMethod builds a query session of m over objs: a served kind as
// pkg/rnknn's session pools do, an IER form over its oracle, a Distance
// Browsing form over e's SILC index.
func (h *Harness) mustMethod(e *core.Engine, m method, objs *knn.ObjectSet) knn.Method {
	switch {
	case m.oracle != nil:
		return ier.New(m.name, e.G, objs, m.oracle(e))
	case m.browse != nil:
		return m.browse(silcIndex(e).x, objs)
	}
	s, err := e.NewSession(m.kind, e.NewBinding(objs, []core.MethodKind{m.kind}))
	if err != nil {
		panic(err)
	}
	return s
}

// sessions builds row r of a figure over ms as mustMethod does.
func (h *Harness) sessions(e *core.Engine, ms []method) func(r int, objs *knn.ObjectSet) knn.Method {
	return func(r int, objs *knn.ObjectSet) knn.Method { return h.mustMethod(e, ms[r], objs) }
}

// builtSILC is a SILC index with its construction time (Figure 8).
type builtSILC struct {
	x    *silc.Index
	took time.Duration
}

// silcIndex returns the SILC index over e's graph, building it on first
// use. It is cached next to e, which the harness caches per network and
// weight view. Beware the O(|V|^2 log |V|) build: the paper limits SILC to
// the smaller networks, and so does DisBrwAllowed.
func silcIndex(e *core.Engine) builtSILC {
	return cached(fmt.Sprintf("silc/%p", e), func() builtSILC {
		start := time.Now()
		x := silc.Build(e.G)
		return builtSILC{x, time.Since(start)}
	})
}
