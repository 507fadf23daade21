// Package planner picks a kNN method per query. The paper's central
// experimental finding is that no single method dominates: INE wins when
// objects are dense (the expansion finds k objects before it grows large,
// Section 7.3 / Figure 11), the IER family and G-tree win at low density
// and large k (Figures 10-11), and the crossovers are governed by k, the
// object density, and the network size, with IER-PHL the overall winner
// where its index fits (Table 5). The planner encodes that regime table as
// one checked-in cost model (see Model) and nothing else: Choose and
// ChooseBatch are pure functions of the enabled methods, k, the live object
// count and |V|. They keep no state and learn nothing from completed
// queries, so a plan depends on the query, never on history, and no outlier
// can move it.
//
// The same cost surface drives batch execution: ChooseBatch decides whether
// a group of clustered INE queries should run as one shared multi-source
// expansion or fan out as independent queries.
package planner

import (
	"fmt"
	"time"

	"rnknn/internal/core"
)

// Features are the query-time signals the cost model is keyed on.
type Features struct {
	// K is the number of neighbors requested.
	K int
	// NumObjects is the live size of the queried object category.
	NumObjects int
	// NumVertices is the road network size.
	NumVertices int
}

// Density is the object density |O|/|V| — the paper's primary regime axis
// (Section 7.3). Clamped away from zero so cost ratios stay finite.
func (f Features) Density() float64 {
	if f.NumVertices <= 0 {
		return 1
	}
	return min(max(float64(f.NumObjects)/float64(f.NumVertices), 1e-9), 1)
}

// Choice is one planning decision: the selected method and the numbers it
// was made from. Reason renders them for pkg/rnknn's Explain; Choose itself
// formats nothing, so planning a query does not allocate.
type Choice struct {
	Kind core.MethodKind
	// Cost is the model's latency estimate for Kind.
	Cost time.Duration

	f Features
}

// Reason is a one-line rationale for logs and Explain output.
func (c Choice) Reason() string {
	return fmt.Sprintf("auto: %s estimated at %v by the regime model (k=%d, density=%.2g, |V|=%d)",
		c.Kind, c.Cost.Round(time.Microsecond), c.f.K, c.f.Density(), c.f.NumVertices)
}

// Choose picks the enabled method the model estimates cheapest for the
// query's (k, density, |V|). Panics only if enabled is empty (callers
// always have at least one method).
func Choose(enabled []core.MethodKind, f Features) Choice {
	x := f.terms()
	best := Choice{Kind: enabled[0], f: f}
	for i, kind := range enabled {
		// Strict < keeps the earlier (caller-preferred) method on ties.
		if c := time.Duration(model.perMethod[kind].nanos(x)); i == 0 || c < best.Cost {
			best.Kind, best.Cost = kind, c
		}
	}
	return best
}

// BatchChoice is one batch-group execution decision (see ChooseBatch). The
// zero value is a fan-out of a group too small to share.
type BatchChoice struct {
	// Shared reports whether the group should run as one shared expansion
	// (true) or fan out as independent queries (false).
	Shared bool
	// SingleCost is the one-query latency estimate the decision used.
	SingleCost time.Duration
	// GroupCost is the estimated total for the chosen execution.
	GroupCost time.Duration

	size int
}

// Reason is a one-line rationale for Batch.Explain.
func (bc BatchChoice) Reason() string {
	if bc.size < 2 {
		return "fan-out: group too small to share"
	}
	crossover := time.Duration(model.SharedMinSingleNanos).Round(time.Microsecond)
	if !bc.Shared {
		return fmt.Sprintf("fan-out: %s single-query estimate %v below %v sharing crossover by the regime model",
			core.INE, bc.SingleCost.Round(time.Microsecond), crossover)
	}
	return fmt.Sprintf("shared expansion: %d×%s at %v/query ≥ %v sharing crossover by the regime model, group estimate %v vs %v fanned out",
		bc.size, core.INE, bc.SingleCost.Round(time.Microsecond), crossover,
		bc.GroupCost.Round(time.Microsecond), (bc.SingleCost * time.Duration(bc.size)).Round(time.Microsecond))
}

// ChooseBatch decides how a batch group of size clustered INE queries — INE
// is the one method with a shared expansion, so its row is the one costed —
// should execute: as one shared multi-source expansion or as independent
// fanned-out queries. The decision rides on the model's single-query INE
// estimate for the group's (k, density, |V|): sharing pays
// exactly when individual queries are expensive — large search regions
// overlap heavily inside one partition leaf, so the frontier's work is paid
// once for the whole group — and loses when queries are cheap, where the
// multi-source frontier's per-vertex width tax exceeds the savings. The
// crossover itself is a model coefficient (Model.SharedMinSingleNanos).
func ChooseBatch(f Features, size int) BatchChoice {
	single := model.perMethod[core.INE].nanos(f.terms())
	bc := BatchChoice{SingleCost: time.Duration(single), GroupCost: time.Duration(single * float64(size)), size: size}
	if size >= 2 && single >= model.SharedMinSingleNanos {
		bc.Shared = true
		bc.GroupCost = time.Duration(model.SharedBaseNanos + single*(1+model.SharedMemberFrac*float64(size-1)))
	}
	return bc
}
