package rnknn

import (
	"fmt"
	"strings"

	"rnknn/internal/core"
)

// Method identifies a kNN method configuration. The zero value is INE.
type Method int

// MethodAuto asks the planner to pick the method per query from the DB's
// enabled methods, using the paper's regime findings (no single method
// dominates; crossovers are governed by k, object density, and network
// size — Section 7, Table 5). Usable with WithMethod on KNN, KNNSeq, and
// batch queries; Explain reports what it resolves to and why.
const MethodAuto Method = -1

// The methods mirror internal/core's kinds: the paper's five algorithms,
// with IER composable over each distance oracle (Section 5).
const (
	// INE is Incremental Network Expansion (Section 3.1).
	INE Method = iota
	// IERDijk is IER with a resumable Dijkstra oracle (the original IER).
	IERDijk
	// IERCH is IER with a Contraction Hierarchies oracle.
	IERCH
	// IERTNR is IER with a Transit Node Routing oracle.
	IERTNR
	// IERPHL is IER with the hub-labeling (PHL) oracle — the paper's
	// overall winner (Table 5).
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
	numMethods
)

func (m Method) valid() bool { return m >= 0 && m < numMethods }

func (m Method) kind() core.MethodKind { return core.MethodKind(m) }

// ranges reports whether the method has a range form: INE's bounded
// expansion, or the IER family's Euclidean restriction over any oracle.
func (m Method) ranges() bool { return m == INE || m >= IERDijk && m <= IERGt }

// String returns the method's display name (e.g. "IER-PHL"), the same name
// ParseMethod accepts. MethodAuto prints as "Auto".
func (m Method) String() string {
	if m == MethodAuto {
		return "Auto"
	}
	return m.kind().String()
}

// Methods lists every method in display order.
func Methods() []Method {
	out := make([]Method, 0, numMethods)
	for m := Method(0); m < numMethods; m++ {
		out = append(out, m)
	}
	return out
}

// MethodNames lists every method's display name in display order.
func MethodNames() []string {
	out := make([]string, 0, numMethods)
	for _, m := range Methods() {
		out = append(out, m.String())
	}
	return out
}

// ParseMethod resolves a display name ("INE", "IER-PHL", "Gtree", ...,
// case-insensitively) to its Method, reporting ErrUnknownMethod for
// anything else. "Auto" (or "auto") resolves to MethodAuto.
func ParseMethod(name string) (Method, error) {
	if strings.EqualFold(name, MethodAuto.String()) {
		return MethodAuto, nil
	}
	for _, m := range Methods() {
		if strings.EqualFold(m.String(), name) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("%w: %q (valid: Auto, %v)", ErrUnknownMethod, name, MethodNames())
}
