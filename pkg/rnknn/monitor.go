package rnknn

import (
	"context"
	"fmt"
	"iter"
	"sync/atomic"

	"rnknn/internal/monitor"
)

// MonitorUpdate is one route step of a continuous query: step/epoch stamps,
// whether the step re-ran the search (and why), and the result-set deltas
// versus the previous step. See DB.Monitor.
type MonitorUpdate = monitor.Update

// MonitorEvent is one result-set delta inside a MonitorUpdate: an object
// entering or leaving the k nearest, or a member's distance changing across
// a re-expansion.
type MonitorEvent = monitor.Event

// MonitorEventKind classifies a MonitorEvent.
type MonitorEventKind = monitor.EventKind

// MonitorRefresh says why a monitor step re-ran the search, or
// MonitorRefreshNone when the safe-region check alone proved the cached
// set still exact.
type MonitorRefresh = monitor.RefreshReason

// The MonitorEvent kinds and MonitorUpdate refresh reasons, re-exported
// from internal/monitor.
const (
	MonitorEnter      = monitor.Enter
	MonitorExit       = monitor.Exit
	MonitorDistChange = monitor.DistChange

	MonitorRefreshNone    = monitor.RefreshNone
	MonitorRefreshInitial = monitor.RefreshInitial
	MonitorRefreshDrift   = monitor.RefreshDrift
	MonitorRefreshEpoch   = monitor.RefreshEpoch
	MonitorRefreshJump    = monitor.RefreshJump
)

// MonitorStats aggregates the DB's continuous-query work: how many monitor
// sessions ran, how many route steps they served, and — the number the
// subsystem exists for — how many of those steps were answered by the
// safe-region check alone versus re-running the search.
type MonitorStats struct {
	// Started counts Monitor streams that began iterating (validated and
	// checked out a session).
	Started uint64
	// Steps counts route-step updates yielded across all monitors.
	Steps uint64
	// Avoided counts steps answered by the safe-region bound alone — no
	// search ran. Avoided + Refreshes == Steps.
	Avoided uint64
	// Refreshes counts steps that re-ran the (k+1)-expansion, split by
	// cause below.
	Refreshes uint64
	// Initial: first step of a route (nothing pinned yet). Drift: the
	// accumulated displacement outgrew the safe gap. Epoch: object churn
	// landed. Jump: a non-edge route step made displacement unbounded.
	Initial uint64
	Drift   uint64
	Epoch   uint64
	Jump    uint64
}

// monitorCounters is the DB's lock-free MonitorStats aggregate.
type monitorCounters struct {
	started   atomic.Uint64
	steps     atomic.Uint64
	avoided   atomic.Uint64
	refreshes atomic.Uint64
	initial   atomic.Uint64
	drift     atomic.Uint64
	epoch     atomic.Uint64
	jump      atomic.Uint64
}

func (mc *monitorCounters) recordStep(r MonitorRefresh) {
	mc.steps.Add(1)
	switch r {
	case MonitorRefreshNone:
		mc.avoided.Add(1)
		return
	case MonitorRefreshInitial:
		mc.initial.Add(1)
	case MonitorRefreshDrift:
		mc.drift.Add(1)
	case MonitorRefreshEpoch:
		mc.epoch.Add(1)
	case MonitorRefreshJump:
		mc.jump.Add(1)
	}
	mc.refreshes.Add(1)
}

func (mc *monitorCounters) snapshot() MonitorStats {
	return MonitorStats{
		Started:   mc.started.Load(),
		Steps:     mc.steps.Load(),
		Avoided:   mc.avoided.Load(),
		Refreshes: mc.refreshes.Load(),
		Initial:   mc.initial.Load(),
		Drift:     mc.drift.Load(),
		Epoch:     mc.epoch.Load(),
		Jump:      mc.jump.Load(),
	}
}

// MonitorStats returns the DB's continuous-query counters. Safe for
// concurrent use; counters are read atomically but not as one consistent
// cut.
func (db *DB) MonitorStats() MonitorStats { return db.mon.snapshot() }

// Monitor runs a continuous kNN query along a route: the query point visits
// route[0], route[1], ... in order, and the returned stream yields one
// MonitorUpdate per vertex carrying the result-set deltas (Enter / Exit /
// DistChange events) rather than the full answer. Consecutive route
// vertices are normally joined by an edge (a moving client advances one
// edge per step); repeats ("stopped at a light") and jumps are both legal —
// a jump just forfeits the cheap step.
//
// Per step the monitor first runs a safe-region check derived from the
// pinned answer: having expanded to the (k+1)-th neighbor at an anchor, the
// gap d_{k+1} - d_k bounds how far the query may move before membership
// could change, and each route step only adds its edge weight (from the
// graph's active weight view) to the accumulated displacement. While twice
// the displacement stays within the gap the cached set is provably still
// exact and the step costs no search at all. Only when the bound breaks, an
// object-epoch change lands (InsertObjects / RemoveObjects), or the route
// jumps does the monitor re-expand — seeded from the one pooled session it
// holds for its whole lifetime, with the same pinned-epoch semantics as
// KNNPinned. MonitorStats reports the avoided/re-run split.
//
// Membership is exact at every step. Reported distances are exact at
// refresh steps (Update.Refresh != MonitorRefreshNone) and anchored between
// them: each is stale by at most the accumulated displacement. Replaying
// the events in order (exits first) reconstructs the result set at every
// step.
//
// The yielded error is non-nil on at most the final pair, as with KNNSeq:
// invalid input yields one typed-error pair (ErrBadK, ErrBadRoute,
// ErrBadVertex, ...) and ends, and cancellation mid-route ends the stream
// with ctx's error. Breaking out of the loop early releases the session;
// the sequence is single-use. Safe for unbounded concurrent callers, each
// monitor being its own session.
func (db *DB) Monitor(ctx context.Context, route []int32, k int, opts ...QueryOption) iter.Seq2[MonitorUpdate, error] {
	r := append([]int32(nil), route...)
	return func(yield func(MonitorUpdate, error) bool) {
		if len(r) == 0 {
			yield(MonitorUpdate{}, fmt.Errorf("%w: empty route", ErrBadRoute))
			return
		}
		// Every route vertex is checked as a query for k neighbors — the
		// precedence every entry point shares — and then the first is
		// prepared for k+1: the refresh expansion's k-th neighbor is the
		// answer's edge and its (k+1)-th prices the safe gap.
		qr := knnQuery(r[0], k, opts)
		for _, v := range r {
			qr.v = v
			if err := db.check(ctx, &qr); err != nil {
				yield(MonitorUpdate{}, err)
				return
			}
		}
		qr.v, qr.k = r[0], k+1
		ep, m, err := db.prepare(ctx, &qr)
		if err != nil {
			yield(MonitorUpdate{}, err)
			return
		}
		ps, err := db.pools[m].get(ep.parts[0])
		if err != nil {
			yield(MonitorUpdate{}, err)
			return
		}
		// One deferred release covers the monitor's whole lifetime: route
		// completion, early consumer break, cancellation, and panics in the
		// consumer's loop body unwinding through this frame.
		defer db.pools[m].put(ps)
		db.mon.started.Add(1)

		tr := monitor.New(db.g, k)
		// emitted is the result set as of the last yielded update; Diff
		// against it produces each refresh step's events.
		var emitted []Result
		prev := r[0]
		for i, v := range r {
			if err := ctx.Err(); err != nil {
				yield(MonitorUpdate{}, err)
				return
			}
			// Re-snapshot the category each step so live churn is observed:
			// a new epoch forces a refresh on this epoch's object set.
			ep, err = db.snapshot(qr.opt.category)
			if err != nil {
				yield(MonitorUpdate{}, err)
				return
			}
			reason := tr.Step(prev, v, ep.n)
			var events []MonitorEvent
			if reason != MonitorRefreshNone {
				// Rebind is legal here: the monitor is between queries on
				// its one single-goroutine session.
				ps.sess.Rebind(ep.parts[0])
				qr.v = v
				if ps.buf, _, err = db.run(ctx, ps, &qr, ep, m, ps.buf[:0]); err != nil {
					yield(MonitorUpdate{}, err)
					return
				}
				tr.Pin(ps.buf, ep.n)
				events = monitor.Diff(emitted, tr.Results(), nil)
				emitted = append(emitted[:0], tr.Results()...)
			}
			db.mon.recordStep(reason)
			u := MonitorUpdate{
				Step:    i,
				Vertex:  v,
				Epoch:   tr.Epoch(),
				Refresh: reason,
				Events:  events,
			}
			if !yield(u, nil) {
				return
			}
			prev = v
		}
	}
}
