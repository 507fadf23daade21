// Package planner picks a kNN method per query. The paper's central
// experimental finding is that no single method dominates: INE wins when
// objects are dense (the expansion finds k objects before it grows large,
// Section 7.3 / Figure 11), the IER family and G-tree win at low density
// and large k (Figures 10-11), and the crossovers are governed by k, the
// object density, and the network size, with IER-PHL the overall winner
// where its index fits (Table 5). The planner encodes that regime table as
// a cost model — coefficients fitted offline from accumulated benchmark
// runs where available (see Model and cmd/fitcost), hand-seeded paper
// priors where not — and refines it online with per-method latency EWMAs,
// bucketed by (k, density) regime, observed from completed queries.
//
// The same cost surface drives batch execution: ChooseBatch decides whether
// a group of clustered queries should run as one shared multi-source
// expansion or fan out as independent queries.
//
// A Planner is safe for concurrent use: observations, choices and model
// swaps touch only atomics.
package planner

import (
	"fmt"
	"math"
	"sync/atomic"
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
	d := float64(f.NumObjects) / float64(f.NumVertices)
	if d < 1e-9 {
		d = 1e-9
	}
	if d > 1 {
		d = 1
	}
	return d
}

// Regime buckets: k by log2 (paper varies k in powers, Figure 10), density
// by decade (Figure 11's axis). Observations land in one (method, k,
// density) cell so a latency learned at k=1, D=0.1 never shadows k=640,
// D=0.0001.
const (
	numKBuckets = 9
	numDBuckets = 6
)

func kBucket(k int) int {
	b := 0
	for k > 1 && b < numKBuckets-1 {
		k >>= 1
		b++
	}
	return b
}

func dBucket(d float64) int {
	// >=0.1 → 0, >=0.01 → 1, ..., >=1e-5 → 4, below → 5.
	b := 0
	for th := 0.1; d < th && b < numDBuckets-1; th /= 10 {
		b++
	}
	return b
}

// numKinds mirrors internal/core's method-kind count.
var numKinds = len(core.Kinds())

// Planner is the adaptive method planner.
type Planner struct {
	// ewma[kind][kb][db] is the smoothed observed latency in nanoseconds
	// for one (method, regime) cell; zero means no observation yet. The
	// read-modify-write is intentionally lossy under contention (both
	// halves are atomic; a lost update only slows EWMA convergence).
	ewma [][numKBuckets][numDBuckets]atomic.Int64

	// model is the live cost prior (DefaultModel unless SetModel swapped in
	// another fit).
	model atomic.Pointer[Model]
	// staleNeighbors is set by SetModel: the static priors the EWMAs were
	// once compared against have changed, so the next density-decade
	// crossing also forgets the neighboring decades (see NoteDensityShift).
	staleNeighbors atomic.Bool
}

// New returns a Planner with no observations: choices start from
// DefaultModel (the checked-in fitted cost table, or the paper-seeded
// priors where no fit exists).
func New() *Planner {
	p := &Planner{ewma: make([][numKBuckets][numDBuckets]atomic.Int64, numKinds)}
	p.model.Store(DefaultModel)
	return p
}

// Model returns the live cost model.
func (p *Planner) Model() *Model { return p.model.Load() }

// SetModel swaps the cost prior (nil restores the hand-seeded paper
// priors). Existing latency EWMAs are kept — they are measurements, not
// priors — but the swap marks every density decade's static baseline as
// changed, so the next churn-driven regime crossing also resets the decades
// adjacent to the crossed one (their EWMAs were trained against the old
// prior's crossovers; see NoteDensityShift). Safe for concurrent use.
func (p *Planner) SetModel(m *Model) {
	if m == nil {
		m = seedModel()
	}
	p.model.Store(m)
	p.staleNeighbors.Store(true)
}

// ewmaShift is the EWMA smoothing factor 1/2^3: new = old + (sample-old)/8.
const ewmaShift = 3

// Observe folds one completed query's latency into the (kind, regime)
// cell. Call it for every completed kNN query, whatever chose the method —
// fixed-method traffic trains the planner too. (Shared-expansion batch
// members are the exception: their amortized per-member latency is not a
// single-query latency and must not train these cells.)
func (p *Planner) Observe(kind core.MethodKind, f Features, d time.Duration) {
	if int(kind) < 0 || int(kind) >= numKinds || d < 0 {
		return
	}
	cell := &p.ewma[kind][kBucket(f.K)][dBucket(f.Density())]
	old := cell.Load()
	if old == 0 {
		cell.Store(int64(d))
		return
	}
	cell.Store(old + (int64(d)-old)>>ewmaShift)
}

// resetDecade forgets every (kind, k) EWMA of one density decade.
func (p *Planner) resetDecade(db int) {
	for kind := range p.ewma {
		for kb := 0; kb < numKBuckets; kb++ {
			p.ewma[kind][kb][db].Store(0)
		}
	}
}

// NoteDensityShift tells the planner a category's live object count moved
// from oldF to newF (an object-churn mutation: InsertObjects,
// RemoveObjects, or a bulk re-registration). Within one density decade the
// shift cannot change any Choose outcome and this is a no-op. When the
// shift crosses into a different density bucket — the regime axis the
// paper's Figure 11 sweeps — the latency EWMAs stored for that bucket were
// learned whenever traffic last ran at that density, possibly long ago and
// over a very different object composition, so the planner forgets that
// density column and falls back to the model until fresh post-churn traffic
// retrains it. If a SetModel reload has changed the static priors since the
// last crossing, the decades adjacent to the crossed one are forgotten too:
// their stored EWMAs only ever mattered relative to the old model's
// crossovers, and the boundary regimes are where a reload moves decisions.
// Reports whether a regime boundary was crossed. Safe for concurrent use.
func (p *Planner) NoteDensityShift(oldF, newF Features) bool {
	nb := dBucket(newF.Density())
	if dBucket(oldF.Density()) == nb {
		return false
	}
	p.resetDecade(nb)
	if p.staleNeighbors.Swap(false) {
		if nb > 0 {
			p.resetDecade(nb - 1)
		}
		if nb < numDBuckets-1 {
			p.resetDecade(nb + 1)
		}
	}
	return true
}

// observed returns the cell's EWMA in nanoseconds, or 0 when the regime
// has no observations for this kind.
func (p *Planner) observed(kind core.MethodKind, f Features) int64 {
	if int(kind) < 0 || int(kind) >= numKinds {
		return 0
	}
	return p.ewma[kind][kBucket(f.K)][dBucket(f.Density())].Load()
}

// Choice is one planning decision: the selected method and the numbers it
// was made from. Reason renders them for pkg/rnknn's Explain; Choose itself
// formats nothing, so planning a query does not allocate.
type Choice struct {
	Kind core.MethodKind
	// Cost is the estimated or observed latency the choice was based on.
	Cost time.Duration
	// Observed reports whether Cost came from the regime's latency EWMA
	// (true) or the static cost model (false).
	Observed bool

	f     Features
	model *Model
}

// source names where a cost came from.
func source(m *Model, observed bool) string {
	if observed {
		return "observed EWMA"
	}
	return m.source()
}

// Reason is a one-line rationale for logs and Explain output.
func (c Choice) Reason() string {
	return fmt.Sprintf("auto: %s estimated at %v by %s (k=%d, density=%.2g, |V|=%d)",
		c.Kind, c.Cost.Round(time.Microsecond), source(c.model, c.Observed), c.f.K, c.f.Density(), c.f.NumVertices)
}

// Choose picks the cheapest enabled method for the query's regime:
// observed EWMA latency where this (method, k, density) cell has traffic,
// the cost model where it does not. Panics only if enabled is empty
// (callers always have at least one method).
func (p *Planner) Choose(enabled []core.MethodKind, f Features) Choice {
	m := p.model.Load()
	best := Choice{Kind: enabled[0], Cost: time.Duration(math.MaxInt64)}
	for _, kind := range enabled {
		var c Choice
		if obs := p.observed(kind, f); obs > 0 {
			c = Choice{Kind: kind, Cost: time.Duration(obs), Observed: true}
		} else {
			c = Choice{Kind: kind, Cost: time.Duration(m.Cost(kind, f))}
		}
		// Strict < keeps the earlier (caller-preferred) method on ties.
		if c.Cost < best.Cost {
			best = c
		}
	}
	best.f, best.model = f, m
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

	kind     core.MethodKind
	size     int
	observed bool
	model    *Model
}

// Reason is a one-line rationale for Batch.Explain.
func (bc BatchChoice) Reason() string {
	if bc.size < 2 {
		return "fan-out: group too small to share"
	}
	crossover := time.Duration(bc.model.SharedMinSingleNanos).Round(time.Microsecond)
	src := source(bc.model, bc.observed)
	if !bc.Shared {
		return fmt.Sprintf("fan-out: %s single-query estimate %v below %v sharing crossover by %s",
			bc.kind, bc.SingleCost.Round(time.Microsecond), crossover, src)
	}
	return fmt.Sprintf("shared expansion: %d×%s at %v/query ≥ %v sharing crossover by %s, group estimate %v vs %v fanned out",
		bc.size, bc.kind, bc.SingleCost.Round(time.Microsecond), crossover, src,
		bc.GroupCost.Round(time.Microsecond), (bc.SingleCost * time.Duration(bc.size)).Round(time.Microsecond))
}

// ChooseBatch decides how a batch group of size clustered queries of one
// method kind should execute: as one shared multi-source expansion or as
// independent fanned-out queries. The decision rides on the single-query
// estimate for the group's regime (observed EWMA when the cell has traffic,
// the model otherwise): sharing pays exactly when individual queries are
// expensive — large search regions overlap heavily inside one partition
// leaf, so the frontier's work is paid once for the whole group — and loses
// when queries are cheap, where the multi-source frontier's per-vertex
// width tax exceeds the savings. The crossover itself is a model
// coefficient (Model.SharedMinSingleNanos), measured alongside the fitted
// table.
func (p *Planner) ChooseBatch(kind core.MethodKind, f Features, size int) BatchChoice {
	m := p.model.Load()
	single := float64(m.Cost(kind, f))
	obs := p.observed(kind, f)
	if obs > 0 {
		single = float64(obs)
	}
	bc := BatchChoice{SingleCost: time.Duration(single), kind: kind, size: size, observed: obs > 0, model: m}
	bc.GroupCost = time.Duration(single * float64(size))
	if size >= 2 && single >= m.SharedMinSingleNanos {
		bc.Shared = true
		bc.GroupCost = time.Duration(m.SharedCost(single, size))
	}
	return bc
}
