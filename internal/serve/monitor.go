package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rnknn/internal/graph"
	"rnknn/pkg/rnknn"
)

// maxMonitorSteps bounds one monitor session's route length: a monitor
// holds its admission slot for its whole lifetime, so an unbounded route
// would let one client park in the semaphore forever.
const maxMonitorSteps = 65536

// maxMonitorIntervalMS bounds interval_ms, which also keeps the tick
// duration computed from it from overflowing.
const maxMonitorIntervalMS = 60000

// handleMonitor is the continuous-query endpoint: GET /monitor opens a
// Server-Sent Events stream that follows a moving query along a route and
// emits one "step" event per vertex carrying the result-set deltas, then a
// "done" event with the session's avoided/re-run split. The route is either
// explicit (route=7,12,44,...) or a server-side random walk from a start
// vertex (q=7&steps=200&seed=3 — the form a load generator uses, since
// clients don't see the adjacency). interval_ms paces the steps, emulating
// a vehicle advancing one edge per tick.
//
// The handler runs inside the admission wrapper and holds its slot for the
// whole session — a monitor is sustained work, so it must count against
// MaxInFlight for its duration, not just its setup.
func (s *Server) handleMonitor(w http.ResponseWriter, r *http.Request) {
	k, err := int32Param(r, "k", 10)
	if err != nil {
		writeError(w, err)
		return
	}
	method, err := parseMethod(r.URL.Query().Get("method"))
	if err != nil {
		writeError(w, err)
		return
	}
	category := categoryParam(r)
	interval, err := intParam(r, "interval_ms", 0)
	if err == nil && (interval < 0 || interval > maxMonitorIntervalMS) {
		err = fmt.Errorf("parameter \"interval_ms\" must be in [0, %d], got %d", maxMonitorIntervalMS, interval)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	route, err := s.monitorRoute(r)
	if err != nil {
		writeError(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "streaming unsupported by connection"})
		return
	}

	var ticker *time.Ticker
	if interval > 0 {
		ticker = time.NewTicker(time.Duration(interval) * time.Millisecond)
		defer ticker.Stop()
	}

	// SSE headers are deferred until the first successful update so that
	// validation errors (bad k, bad vertex, unknown category) still answer
	// with their proper HTTP status instead of a 200 stream.
	streaming := false
	// Once the stream is under way a panic cannot become a 500: count it
	// and end the stream. Before that, admitted's contain answers it.
	defer func() {
		if streaming {
			if p := recover(); p != nil {
				s.panicked(p)
			}
		}
	}()
	summary := MonitorSummaryJSON{K: int(k), Category: category}
	for u, err := range s.st.db.Monitor(r.Context(), route, int(k), rnknn.WithMethod(method), rnknn.WithCategory(category)) {
		if err != nil {
			if !streaming {
				writeError(w, err)
				return
			}
			writeSSE(w, "error", ErrorResponse{Error: err.Error()})
			fl.Flush()
			return
		}
		if !streaming {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
			w.WriteHeader(http.StatusOK)
			streaming = true
		}
		summary.Steps++
		if u.Refresh == rnknn.MonitorRefreshNone {
			summary.Avoided++
		} else {
			summary.Refreshes++
		}
		writeSSE(w, "step", MonitorStep(u))
		fl.Flush()
		if ticker != nil && summary.Steps < len(route) {
			select {
			case <-ticker.C:
			case <-r.Context().Done():
				return
			}
		}
	}
	if summary.Steps > 0 {
		summary.AvoidedRatio = float64(summary.Avoided) / float64(summary.Steps)
	}
	writeSSE(w, "done", summary)
	fl.Flush()
}

// monitorRoute builds the session's route: an explicit vertex list from
// route=, or a random walk over the adjacency from q= (steps= long, seeded
// by seed= for reproducibility).
func (s *Server) monitorRoute(r *http.Request) ([]int32, error) {
	if rv := r.URL.Query().Get("route"); rv != "" {
		parts := strings.Split(rv, ",")
		if len(parts) > maxMonitorSteps {
			return nil, fmt.Errorf("route of %d vertices exceeds limit %d", len(parts), maxMonitorSteps)
		}
		route := make([]int32, len(parts))
		for i, p := range parts {
			n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("parameter \"route\": %q is not a 32-bit integer", p)
			}
			route[i] = int32(n)
		}
		return route, nil
	}
	q, err := intParam(r, "q", -1)
	if err != nil {
		return nil, fmt.Errorf("%v (or pass an explicit route=)", err)
	}
	steps, err := intParam(r, "steps", 50)
	if err != nil {
		return nil, err
	}
	if steps < 1 || steps > maxMonitorSteps {
		return nil, fmt.Errorf("parameter \"steps\" must be in [1, %d], got %d", maxMonitorSteps, steps)
	}
	seed, err := intParam(r, "seed", 1)
	if err != nil {
		return nil, err
	}
	g := s.st.db.Graph()
	if q < 0 || q >= g.NumVertices() {
		return nil, fmt.Errorf("parameter \"q\": vertex %d out of range (network has %d vertices)", q, g.NumVertices())
	}
	return randomWalk(g, int32(q), steps, int64(seed)), nil
}

// randomWalk builds a route of n vertices starting at q, advancing one
// uniformly random outgoing edge per step (staying put at a dead end) — a
// vehicle wandering the network.
func randomWalk(g *graph.Graph, q int32, n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	route := make([]int32, n)
	route[0] = q
	for i := 1; i < n; i++ {
		targets, _ := g.Neighbors(route[i-1])
		if len(targets) == 0 {
			route[i] = route[i-1]
			continue
		}
		route[i] = targets[rng.Intn(len(targets))]
	}
	return route
}

// writeSSE writes one Server-Sent Event with a JSON payload.
func writeSSE(w http.ResponseWriter, event string, v any) {
	b, _ := json.Marshal(v)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}
