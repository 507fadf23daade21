// Command knnquery answers kNN queries on a generated network through the
// public rnknn API, printing results and basic timings — a minimal
// end-to-end exercise of the library.
//
// One query with a chosen method (or "auto" for the planner):
//
//	knnquery -network NW -method IER-PHL -k 10 -density 0.001 -q 123
//	knnquery -network NW -method auto -k 10 -density 0.001
//
// Batch mode reads one query vertex per line (blank lines and #-comments
// skipped) and runs them all through db.Batch, printing per-query latency:
//
//	knnquery -network NW -method auto -k 10 -batch queries.txt
//
// Route mode replays a moving query: the file lists one route vertex per
// line, and db.Monitor streams result-set deltas along it, printing each
// step's refresh verdict and events plus the session's avoided/re-run
// split — the offline twin of rnknnd's /monitor endpoint:
//
//	knnquery -network NW -k 10 -density 0.001 -route route.txt
//
// -json switches stdout to the serving layer's wire encoding (one
// serve.KNNResponse object, a serve.BatchResponse in batch mode, or one
// serve.MonitorStepJSON per line plus a serve.MonitorSummaryJSON in route
// mode), so scripts parse the same shapes whether they query the binary or
// a running rnknnd.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rnknn/internal/cliutil"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/serve"
	"rnknn/pkg/rnknn"
)

func main() {
	var (
		network = flag.String("network", "NW", "ladder network name")
		method  = flag.String("method", "Gtree", "method name (auto, "+strings.Join(rnknn.MethodNames(), ", ")+")")
		k       = flag.Int("k", 10, "number of neighbors (> 0)")
		density = flag.Float64("density", 0.001, "uniform object density in (0,1]")
		q       = flag.Int("q", -1, "query vertex (default: middle vertex)")
		batch   = flag.String("batch", "", "file of query vertices (one per line) to run through db.Batch")
		route   = flag.String("route", "", "file of route vertices (one per line) to replay through db.Monitor")
		workers = flag.Int("workers", 0, "batch worker pool size (default GOMAXPROCS)")
		timeW   = flag.Bool("traveltime", false, "use travel-time weights")
		asJSON  = flag.Bool("json", false, "print results as JSON (the rnknnd wire encoding)")
	)
	flag.Parse()

	if *k <= 0 {
		usageExit("-k must be > 0, got %d", *k)
	}
	if *density <= 0 || *density > 1 {
		usageExit("-density must be in (0,1], got %g", *density)
	}
	m, err := rnknn.ParseMethod(*method)
	if err != nil {
		usageExit("%v", err)
	}
	spec, ok := gen.LadderSpec(*network)
	if !ok {
		usageExit("unknown network %q", *network)
	}
	g := gen.Network(spec)
	if *timeW {
		g = g.View(graph.TravelTime)
	}

	// A fixed method builds only its own index; auto plans across the
	// library's default set, INE and G-tree.
	opts := []rnknn.Option{rnknn.WithObjects(rnknn.DefaultCategory, gen.Uniform(g, *density, 42))}
	if m != rnknn.MethodAuto {
		opts = append(opts, rnknn.WithMethods(m))
	}
	start := time.Now()
	db, err := rnknn.Open(g, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	buildTime := time.Since(start)

	if !*asJSON {
		numObjects, _ := db.NumObjects(rnknn.DefaultCategory)
		fmt.Printf("network %s: |V|=%d |E|=%d (%s weights)\n", spec.Name, g.NumVertices(), g.NumEdges()/2, g.Kind)
		fmt.Printf("objects: %d (density %g)\n", numObjects, *density)
		fmt.Printf("method %s built in %s\n", m, buildTime.Round(time.Millisecond))
	}

	if *batch != "" && *route != "" {
		usageExit("-batch and -route are mutually exclusive")
	}
	if *batch != "" {
		runBatch(db, m, *batch, *k, *workers, *asJSON)
		return
	}
	if *route != "" {
		runRoute(db, m, *route, *k, *asJSON)
		return
	}

	qv := int32(*q)
	if qv < 0 || int(qv) >= g.NumVertices() {
		qv = int32(g.NumVertices() / 2)
	}
	if m == rnknn.MethodAuto && !*asJSON {
		plan, err := db.Explain(qv, *k, rnknn.WithMethod(m))
		if err != nil {
			fmt.Fprintln(os.Stderr, "explain:", err)
			os.Exit(1)
		}
		fmt.Printf("planner: %s (%s)\n", plan.Method, plan.Reason)
	}
	start = time.Now()
	results, epoch, err := db.KNNPinned(context.Background(), qv, *k, rnknn.WithMethod(m))
	if err != nil {
		fmt.Fprintln(os.Stderr, "query:", err)
		os.Exit(1)
	}
	queryTime := time.Since(start)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(serve.KNNResponse{
			Query:         qv,
			K:             *k,
			Method:        m.String(),
			Category:      rnknn.DefaultCategory,
			Epoch:         epoch,
			LatencyMicros: queryTime.Microseconds(),
			Results:       serve.Results(results),
		})
	} else {
		fmt.Printf("query from vertex %d took %s\n", qv, queryTime)
		for i, r := range results {
			fmt.Printf("  %2d. vertex %-8d network distance %d\n", i+1, r.Vertex, r.Dist)
		}
	}
	want, err := db.BruteForceKNN(qv, *k)
	if err != nil {
		fmt.Fprintln(os.Stderr, "verify:", err)
		os.Exit(1)
	}
	switch {
	case rnknn.SameResults(results, want):
		if !*asJSON {
			fmt.Println("verified against brute-force expansion: OK")
		}
	case *asJSON:
		fmt.Fprintln(os.Stderr, "MISMATCH vs brute force:", rnknn.FormatResults(want))
		os.Exit(1)
	default:
		fmt.Println("MISMATCH vs brute force:", rnknn.FormatResults(want))
	}
}

// runBatch reads query vertices from path and runs them as one db.Batch,
// printing per-query latency and a throughput summary (or, with -json, the
// rnknnd /batch wire encoding).
func runBatch(db *rnknn.DB, m rnknn.Method, path string, k, workers int, asJSON bool) {
	vertices, err := readVertices(path, db.Graph().NumVertices())
	if err != nil {
		usageExit("-batch: %v", err)
	}
	if len(vertices) == 0 {
		usageExit("-batch: %s contains no query vertices", path)
	}
	b := db.Batch().Workers(workers)
	for _, v := range vertices {
		b.AddKNN(v, k, rnknn.WithMethod(m))
	}
	start := time.Now()
	results, err := b.Run(context.Background())
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "batch:", err)
		os.Exit(1)
	}
	if asJSON {
		resp := serve.BatchResponse{Results: make([]serve.BatchResultJSON, len(results))}
		for i, r := range results {
			out := serve.BatchResultJSON{Query: r.Query, LatencyMicros: r.Latency.Microseconds()}
			if r.Err != nil {
				out.Error = r.Err.Error()
			} else {
				out.Method = r.Method.String()
				out.Results = serve.Results(r.Results)
			}
			resp.Results[i] = out
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
		return
	}
	var sum time.Duration
	failed := 0
	for i, r := range results {
		if r.Err != nil {
			failed++
			fmt.Printf("  %4d. q=%-8d ERROR %v\n", i+1, r.Query, r.Err)
			continue
		}
		sum += r.Latency
		fmt.Printf("  %4d. q=%-8d method %-8s latency %-12s nearest %s\n",
			i+1, r.Query, r.Method, r.Latency, rnknn.FormatResults(r.Results[:min(1, len(r.Results))]))
	}
	ok := len(results) - failed
	fmt.Printf("batch: %d queries (%d failed) in %s wall", len(results), failed, wall.Round(time.Microsecond))
	if ok > 0 {
		fmt.Printf("; mean latency %s; %.0f queries/s",
			(sum / time.Duration(ok)).Round(time.Microsecond),
			float64(ok)/wall.Seconds())
	}
	fmt.Println()
}

// runRoute replays a route file through db.Monitor, printing one line per
// step (refresh verdict plus events) and the session's avoided/re-run
// summary — or, with -json, one serve.MonitorStepJSON per step and a
// closing serve.MonitorSummaryJSON.
func runRoute(db *rnknn.DB, m rnknn.Method, path string, k int, asJSON bool) {
	routeVertices, err := readVertices(path, db.Graph().NumVertices())
	if err != nil {
		usageExit("-route: %v", err)
	}
	if len(routeVertices) == 0 {
		usageExit("-route: %s contains no route vertices", path)
	}
	enc := json.NewEncoder(os.Stdout)
	start := time.Now()
	for u, err := range db.Monitor(context.Background(), routeVertices, k, rnknn.WithMethod(m)) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "monitor:", err)
			os.Exit(1)
		}
		if asJSON {
			_ = enc.Encode(serve.MonitorStep(u))
			continue
		}
		fmt.Printf("  step %4d  vertex %-8d epoch %-3d %-8s", u.Step, u.Vertex, u.Epoch, u.Refresh)
		for _, e := range u.Events {
			switch e.Kind {
			case rnknn.MonitorExit:
				fmt.Printf("  -%d", e.Object)
			case rnknn.MonitorEnter:
				fmt.Printf("  +%d:%d", e.Object, e.Dist)
			default:
				fmt.Printf("  ~%d:%d", e.Object, e.Dist)
			}
		}
		fmt.Println()
	}
	wall := time.Since(start)
	ms := db.MonitorStats()
	summary := serve.MonitorSummaryJSON{
		K:         k,
		Category:  rnknn.DefaultCategory,
		Steps:     int(ms.Steps),
		Avoided:   int(ms.Avoided),
		Refreshes: int(ms.Refreshes),
	}
	if summary.Steps > 0 {
		summary.AvoidedRatio = float64(summary.Avoided) / float64(summary.Steps)
	}
	if asJSON {
		_ = enc.Encode(summary)
		return
	}
	fmt.Printf("route: %d steps in %s; %d avoided by safe-region check, %d refreshes (%.0f%% avoided)\n",
		summary.Steps, wall.Round(time.Microsecond), summary.Avoided, summary.Refreshes, 100*summary.AvoidedRatio)
}

// readVertices parses one query vertex per line; blank lines and lines
// starting with # are skipped.
func readVertices(path string, numVertices int) ([]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []int32
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %q is not a vertex id", path, line, s)
		}
		if v < 0 || v >= numVertices {
			return nil, fmt.Errorf("%s:%d: vertex %d out of range [0,%d)", path, line, v, numVertices)
		}
		out = append(out, int32(v))
	}
	return out, sc.Err()
}

// usageExit routes invalid flag values through the shared convention,
// appending the valid method names.
func usageExit(format string, args ...any) {
	cliutil.UsageExit("valid methods: auto, "+strings.Join(rnknn.MethodNames(), ", "), format, args...)
}
