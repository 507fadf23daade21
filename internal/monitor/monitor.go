// Package monitor is the continuous-kNN core: the state a moving query
// session needs to keep its kNN result set provably exact while avoiding
// re-running the search at (almost) every step.
//
// A navigation client advances along a route one edge at a time and re-asks
// the same kNN question from each vertex. Most of those re-queries are
// redundant, and the Tracker makes the redundancy checkable: every
// re-expansion pins the answer at an anchor vertex together with a safe gap
// derived from the (k+1)-th neighbor, and each route step then costs one
// edge-weight addition and one comparison to decide whether the pinned set
// is still exact.
//
// # The safe-region bound
//
// Let the anchor expansion at vertex a return the k+1 nearest objects with
// distances d_1 <= ... <= d_k <= d_{k+1}, and let the query have moved to a
// vertex q with network distance delta = dist(a, q) (upper-bounded by the
// sum of traversed route edge weights, read from the graph's active weight
// view). By the triangle inequality,
//
//	for every pinned member o_i:  dist(q, o_i) <= d_i + delta <= d_k + delta
//	for every other object o:     dist(q, o)   >= d_{k+1} - delta
//
// so while 2*delta <= d_{k+1} - d_k every non-member is at least as far as
// every member, and the pinned set remains a valid kNN answer at q — any
// non-member that catches up can at best tie at the cutoff distance, and a
// tie at the k-th distance admits either choice. When the whole object set
// has at most k members the gap is unbounded: movement alone can never
// change the answer, only object churn can (which the epoch stamp catches).
//
// Between re-expansions the membership is exact but the reported distances
// are as of the last anchor; each drifts from the true value by at most
// delta. A re-expansion refreshes both and emits the resulting deltas.
//
// The Tracker holds the per-session state machine; Diff turns two pinned
// answers into the Enter/Exit/DistChange event stream the serving layer
// forwards. Neither allocates on the safe-step path.
package monitor

import (
	"fmt"

	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

// EventKind classifies one result-set delta.
type EventKind uint8

const (
	// Enter reports an object joining the result set at the stamped step.
	Enter EventKind = iota
	// Exit reports an object leaving the result set.
	Exit
	// DistChange reports a member whose distance changed across a
	// re-expansion while its membership held.
	DistChange
)

// String returns the wire name of the kind ("enter", "exit", "dist_change").
func (k EventKind) String() string {
	switch k {
	case Enter:
		return "enter"
	case Exit:
		return "exit"
	case DistChange:
		return "dist_change"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one result-set delta: an object entering, leaving, or changing
// distance. Dist is meaningful for Enter and DistChange (the network
// distance from the step's refresh anchor) and zero for Exit.
type Event struct {
	Kind   EventKind
	Object int32
	Dist   graph.Dist
}

// RefreshReason says why a step did (or did not) re-run the search.
type RefreshReason uint8

const (
	// RefreshNone: the safe-region check proved the pinned set still exact;
	// no search ran.
	RefreshNone RefreshReason = iota
	// RefreshInitial: the first step of a route has nothing pinned yet.
	RefreshInitial
	// RefreshDrift: accumulated displacement exceeded the safe gap.
	RefreshDrift
	// RefreshEpoch: the object category's epoch advanced (churn landed), so
	// the pinned answer describes a superseded object set.
	RefreshEpoch
	// RefreshJump: the route step was not along an edge, so the
	// displacement has no cheap upper bound.
	RefreshJump
)

// String returns the wire name of the reason.
func (r RefreshReason) String() string {
	switch r {
	case RefreshNone:
		return "none"
	case RefreshInitial:
		return "initial"
	case RefreshDrift:
		return "drift"
	case RefreshEpoch:
		return "epoch"
	case RefreshJump:
		return "jump"
	default:
		return fmt.Sprintf("RefreshReason(%d)", uint8(r))
	}
}

// Update is one route step's output: the step and epoch stamps, whether a
// re-expansion ran (and why), and the result-set deltas against the
// previous step. An empty Events slice means the previous step's result
// set is still the answer.
type Update struct {
	// Step indexes the route vertex this update describes (0-based).
	Step int
	// Vertex is route[Step], the query position.
	Vertex int32
	// Epoch is the object-category epoch the result set is exact for.
	Epoch uint64
	// Refresh reports whether this step re-ran the search (anything but
	// RefreshNone) or was answered by the safe-region check alone.
	Refresh RefreshReason
	// Events are the deltas versus the previous step, exits first.
	Events []Event
}

// Tracker is one continuous query's safe-region state machine. It is
// single-goroutine, like the query session whose lifetime it shares.
//
// The driving loop calls Step once per route vertex; a non-RefreshNone
// return obliges the caller to run a fresh (k+1)-expansion from that vertex
// and hand the answer to Pin before the next Step.
type Tracker struct {
	g *graph.Graph
	k int

	// pinned is the current anchored answer: up to k members with their
	// anchor distances, owned by the tracker (copied in Pin).
	pinned []knn.Result
	// gap is d_{k+1} - d_k at the anchor, or graph.Inf when the expansion
	// found at most k objects (movement can then never change the set).
	gap graph.Dist
	// drift is the accumulated route displacement since the anchor — an
	// upper bound on the network distance to it.
	drift graph.Dist
	// epoch is the object-set version the pinned answer was computed from.
	epoch uint64
	// primed reports that Pin has run at least once.
	primed bool
}

// New returns a Tracker for k-NN monitoring over g. The graph's active
// weight view is the one displacements are measured in, so a travel-time
// view monitors in travel time.
func New(g *graph.Graph, k int) *Tracker {
	return &Tracker{g: g, k: k}
}

// Step advances the query from vertex `from` to vertex `to` under the live
// category epoch and reports whether the pinned answer is still provably
// exact (RefreshNone) or why it must be recomputed. The first call (and any
// call before Pin) is always RefreshInitial. Step never mutates the pinned
// answer; on a refresh verdict the caller re-expands and Pins.
func (t *Tracker) Step(from, to int32, epoch uint64) RefreshReason {
	if !t.primed {
		return RefreshInitial
	}
	if epoch != t.epoch {
		return RefreshEpoch
	}
	if from != to {
		w, ok := t.g.EdgeWeightBetween(from, to)
		if !ok {
			return RefreshJump
		}
		t.drift += graph.Dist(w)
	}
	if t.gap != graph.Inf && 2*t.drift > t.gap {
		return RefreshDrift
	}
	return RefreshNone
}

// Pin anchors a fresh expansion: results must be the (k+1)-nearest answer
// from the current route vertex over the object set of the given epoch
// (fewer than k+1 results means the whole set was smaller). The tracker
// copies the first k results into its own storage and derives the safe gap
// from the (k+1)-th.
func (t *Tracker) Pin(results []knn.Result, epoch uint64) {
	n := len(results)
	if n > t.k {
		n = t.k
	}
	t.pinned = append(t.pinned[:0], results[:n]...)
	if len(results) > t.k {
		t.gap = results[t.k].Dist - results[t.k-1].Dist
	} else {
		// The expansion exhausted the object set: no (k+1)-th object exists,
		// so no displacement can ever promote a non-member.
		t.gap = graph.Inf
	}
	t.drift = 0
	t.epoch = epoch
	t.primed = true
}

// Results returns the pinned members with their anchor distances, in
// nondecreasing distance order. The slice is the tracker's own storage:
// valid until the next Pin, not to be mutated.
func (t *Tracker) Results() []knn.Result { return t.pinned }

// Epoch returns the epoch the pinned answer is exact for.
func (t *Tracker) Epoch() uint64 { return t.epoch }

// Drift returns the accumulated displacement upper bound since the anchor.
func (t *Tracker) Drift() graph.Dist { return t.drift }

// Gap returns the anchor's safe gap (graph.Inf when unbeatable): the pinned
// set stays provably exact while 2*Drift() <= Gap().
func (t *Tracker) Gap() graph.Dist { return t.gap }

// Diff appends the Enter/Exit/DistChange events that turn result set old
// into result set new, and returns the extended slice. Exits come first (in
// old's order), then Enters and DistChanges in new's distance order — so a
// replayer applying events in order never holds more than max(len(old),
// len(new)) members. Both inputs must be in nondecreasing distance order
// (as every method returns); sets of size up to ~100 use a linear scan, the
// regime continuous queries live in.
func Diff(old, new []knn.Result, dst []Event) []Event {
	for _, o := range old {
		if _, ok := lookup(new, o.Vertex); !ok {
			dst = append(dst, Event{Kind: Exit, Object: o.Vertex})
		}
	}
	for _, n := range new {
		if d, ok := lookup(old, n.Vertex); !ok {
			dst = append(dst, Event{Kind: Enter, Object: n.Vertex, Dist: n.Dist})
		} else if d != n.Dist {
			dst = append(dst, Event{Kind: DistChange, Object: n.Vertex, Dist: n.Dist})
		}
	}
	return dst
}

// lookup finds vertex v's distance in a small result list.
func lookup(rs []knn.Result, v int32) (graph.Dist, bool) {
	for _, r := range rs {
		if r.Vertex == v {
			return r.Dist, true
		}
	}
	return 0, false
}

// Apply replays one update's events onto a result-set map (object ->
// distance) — the reference replayer the tests and clients use. Exits must
// name present members and Enters absent ones; Apply reports the first
// violation, the "delta stream is internally consistent" check.
func Apply(state map[int32]graph.Dist, events []Event) error {
	for _, e := range events {
		_, present := state[e.Object]
		switch e.Kind {
		case Enter:
			if present {
				return fmt.Errorf("monitor: Enter(%d) but already a member", e.Object)
			}
			state[e.Object] = e.Dist
		case Exit:
			if !present {
				return fmt.Errorf("monitor: Exit(%d) but not a member", e.Object)
			}
			delete(state, e.Object)
		case DistChange:
			if !present {
				return fmt.Errorf("monitor: DistChange(%d) but not a member", e.Object)
			}
			state[e.Object] = e.Dist
		default:
			return fmt.Errorf("monitor: unknown event kind %d", e.Kind)
		}
	}
	return nil
}
