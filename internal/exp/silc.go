package exp

import (
	"fmt"
	"time"

	"rnknn/internal/core"
	"rnknn/internal/knn"
	"rnknn/internal/silc"
)

// method is one row of a query figure: a kind the engine serves, or one of
// the two forms of Distance Browsing, which the serving build does not
// carry: the harness builds them over its own SILC index (silcIndex).
type method struct {
	name string
	kind core.MethodKind
	// browse builds a Distance Browsing form; nil for a served kind.
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

// The two forms of Distance Browsing: DB-ENN (Appendix A.1.1), and the
// original Object Hierarchy (Algorithm 1).
var (
	disBrw = method{name: "DisBrw", browse: func(x *silc.Index, objs *knn.ObjectSet) knn.Method {
		return silc.NewDBENN(x, objs)
	}}
	disBrwOH = method{name: "DisBrw-OH", browse: func(x *silc.Index, objs *knn.ObjectSet) knn.Method {
		return silc.NewDisBrw(x, x.NewObjectHierarchy(objs, 0))
	}}
)

// mustMethod builds a query session of m over objs: a served kind as
// pkg/rnknn's session pools do, a Distance Browsing form over e's SILC
// index.
func (h *Harness) mustMethod(e *core.Engine, m method, objs *knn.ObjectSet) knn.Method {
	if m.browse != nil {
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
