package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rnknn/internal/knn"
	"rnknn/pkg/rnknn"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses an SSE body into events.
func readSSE(t *testing.T, body *bufio.Scanner) []sseEvent {
	t.Helper()
	var events []sseEvent
	name := ""
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events = append(events, sseEvent{name: name, data: strings.TrimPrefix(line, "data: ")})
		}
	}
	if err := body.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// edgeWalkRoute builds a route that advances one edge per step.
func edgeWalkRoute(db *rnknn.DB, start int32, n int) []int32 {
	route := make([]int32, n)
	route[0] = start
	for i := 1; i < n; i++ {
		targets, _ := db.Graph().Neighbors(route[i-1])
		route[i] = targets[i%len(targets)]
	}
	return route
}

// TestMonitorEndpoint drives one /monitor SSE session over an explicit
// route and proves the streamed deltas replay to a valid kNN answer at
// every step, with a consistent closing summary.
func TestMonitorEndpoint(t *testing.T) {
	db := newTestDB(t)
	ts := httptest.NewServer(New(db, Config{}).Handler())
	defer ts.Close()
	monitorReplays(t, ts.URL, db, edgeWalkRoute(db, 17, 25), 4)
}

// monitorReplays follows route on the server at url and requires the
// streamed deltas to replay, at every step, to a valid kNN answer by
// oracle's brute force, closed by a consistent summary with some steps
// avoided.
func monitorReplays(t *testing.T, url string, oracle *rnknn.DB, route []int32, k int) {
	t.Helper()
	parts := make([]string, len(route))
	for i, v := range route {
		parts[i] = fmt.Sprint(v)
	}
	resp, err := http.Get(fmt.Sprintf("%s/monitor?route=%s&k=%d", url, strings.Join(parts, ","), k))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := readSSE(t, bufio.NewScanner(resp.Body))
	if len(events) != len(route)+1 {
		t.Fatalf("%d events, want %d steps + done", len(events), len(route)+1)
	}
	state := map[int32]int64{}
	avoided := 0
	for i, ev := range events[:len(route)] {
		if ev.name != "step" {
			t.Fatalf("event %d is %q", i, ev.name)
		}
		var step MonitorStepJSON
		if err := json.Unmarshal([]byte(ev.data), &step); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if step.Step != i || step.Vertex != route[i] {
			t.Fatalf("event %d: step %d vertex %d, want vertex %d", i, step.Step, step.Vertex, route[i])
		}
		if step.Refresh == "none" {
			avoided++
		}
		for _, e := range step.Events {
			switch e.Kind {
			case "enter", "dist_change":
				state[e.Object] = e.Dist
			case "exit":
				delete(state, e.Object)
			default:
				t.Fatalf("event %d: unknown kind %q", i, e.Kind)
			}
		}
		// The replayed membership must be a valid kNN answer at this step:
		// annotate members with true distances and compare tie-tolerantly.
		want, err := oracle.BruteForceKNN(step.Vertex, k)
		if err != nil {
			t.Fatal(err)
		}
		members := make([]int32, 0, len(state))
		for m := range state {
			members = append(members, m)
		}
		g := oracle.Graph()
		annotated := knn.BruteForce(g, knn.NewObjectSet(g, members), step.Vertex, len(members))
		if !knn.SameResults(annotated, want) {
			t.Fatalf("step %d: replayed set %s invalid (want %s)",
				i, knn.FormatResults(annotated), knn.FormatResults(want))
		}
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("final event is %q", last.name)
	}
	var sum MonitorSummaryJSON
	if err := json.Unmarshal([]byte(last.data), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Steps != len(route) || sum.Avoided != avoided || sum.Avoided+sum.Refreshes != sum.Steps {
		t.Fatalf("summary %+v vs observed avoided %d over %d steps", sum, avoided, len(route))
	}
	if sum.Avoided == 0 {
		t.Fatal("no steps avoided a search on an edge walk")
	}
}

// TestMonitorEndpointWalk covers the server-side random-walk form: the
// requested number of steps stream, and the same seed reproduces the same
// route.
func TestMonitorEndpointWalk(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() []int32 {
		resp, err := http.Get(ts.URL + "/monitor?q=30&steps=20&seed=9&k=3")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var vertices []int32
		for _, ev := range readSSE(t, bufio.NewScanner(resp.Body)) {
			if ev.name != "step" {
				continue
			}
			var step MonitorStepJSON
			if err := json.Unmarshal([]byte(ev.data), &step); err != nil {
				t.Fatal(err)
			}
			vertices = append(vertices, step.Vertex)
		}
		return vertices
	}
	first := get()
	if len(first) != 20 || first[0] != 30 {
		t.Fatalf("walk streamed %d steps from %v", len(first), first[:min(3, len(first))])
	}
	second := get()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("seeded walk not reproducible at step %d: %d vs %d", i, first[i], second[i])
		}
	}
}

// TestMonitorEndpointChurn lands an object mutation mid-session (the
// stream paced by interval_ms so the mutation provably precedes later
// steps) and requires an epoch refresh to appear on the stream.
func TestMonitorEndpointChurn(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	route := edgeWalkRoute(db, 40, 40)
	parts := make([]string, len(route))
	for i, v := range route {
		parts[i] = fmt.Sprint(v)
	}
	resp, err := http.Get(fmt.Sprintf("%s/monitor?route=%s&k=3&interval_ms=10", ts.URL, strings.Join(parts, ",")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	name := ""
	mutated := false
	sawEpochRefresh := false
	startEpoch := uint64(0)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			name = strings.TrimPrefix(line, "event: ")
			continue
		}
		if !strings.HasPrefix(line, "data: ") || name != "step" {
			continue
		}
		var step MonitorStepJSON
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &step); err != nil {
			t.Fatal(err)
		}
		if step.Step == 0 {
			startEpoch = step.Epoch
		}
		if step.Epoch > startEpoch {
			if step.Epoch > startEpoch && step.Refresh == "epoch" {
				sawEpochRefresh = true
			}
		}
		// After a few streamed steps, churn the object set from outside.
		if step.Step == 5 && !mutated {
			mutated = true
			body, _ := json.Marshal(ObjectsRequest{Vertices: []int32{int32(step.Vertex)}})
			mresp, err := http.Post(ts.URL+"/objects/insert", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			mresp.Body.Close()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !mutated {
		t.Fatal("mutation never fired")
	}
	if !sawEpochRefresh {
		t.Fatal("mid-session churn never surfaced as an epoch refresh on the stream")
	}
}

// TestMonitorEndpointErrors maps invalid input to proper HTTP statuses
// before any stream starts.
func TestMonitorEndpointErrors(t *testing.T) {
	db := newTestDB(t)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		url  string
		code int
	}{
		{"/monitor", http.StatusBadRequest},                        // neither q nor route
		{"/monitor?q=5&k=0", http.StatusBadRequest},                // bad k
		{"/monitor?q=999999", http.StatusBadRequest},               // vertex out of range
		{"/monitor?route=1,nope", http.StatusBadRequest},           // unparsable route
		{"/monitor?route=4294967396&k=3", http.StatusBadRequest},   // not vertex 100 (2^32 + 100)
		{"/monitor?q=5&k=4294967299", http.StatusBadRequest},       // k beyond 32 bits
		{"/monitor?route=1,2&category=ghost", http.StatusNotFound}, // unknown category
		{"/monitor?q=5&steps=9999999", http.StatusBadRequest},      // steps over cap
		{"/monitor?q=5&k=3&method=ROAD", http.StatusBadRequest},    // method not enabled
		// As a tick duration this overflows negative, which NewTicker panics on.
		{"/monitor?q=100&steps=3&k=3&interval_ms=9300000000000", http.StatusBadRequest},
		{"/monitor?q=100&steps=3&k=3&interval_ms=-1", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: error content type %q", tc.url, ct)
		}
	}
}
