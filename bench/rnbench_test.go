package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rnknn/internal/gen"
	"rnknn/internal/knn"
)

// TestMain lets the test binary stand in for the harness binary when
// buildFixture or startFloor re-executes it as a child.
func TestMain(m *testing.M) {
	if dir := os.Getenv(fixtureEnv); dir != "" {
		os.Exit(fixtureMain(dir, os.Args[1:]))
	}
	if os.Getenv(floorEnv) != "" {
		os.Exit(floorMain())
	}
	os.Exit(m.Run())
}

func testWorld(t *testing.T, seed int64) *world {
	t.Helper()
	spec, _ := gen.LadderSpec("DE")
	return newWorld(gen.Network(spec), seed)
}

func drawOps(w *world, wl *workload, seed int64, id, n int) string {
	st := newStream(w, wl, seed, id)
	var b strings.Builder
	for i := 0; i < n; i++ {
		o := st.next()
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestStreamsAreAFunctionOfSeedAndClient(t *testing.T) {
	w := testWorld(t, 7)
	for _, wl := range workloads {
		base := drawOps(w, wl, 7, 0, 500)
		if again := drawOps(testWorld(t, 7), wl, 7, 0, 500); again != base {
			t.Errorf("%s: equal seed and client drew different operations", wl.name)
		}
		// Seed s client 1 and seed s+1 client 0 share a PRNG seed by design.
		if shifted := drawOps(w, wl, 6, 1, 500); shifted != base {
			t.Errorf("%s: seed+id 6+1 and 7+0 drew different operations", wl.name)
		}
		if other := drawOps(w, wl, 8, 0, 500); other == base {
			t.Errorf("%s: seeds 7 and 8 drew the same operations", wl.name)
		}
	}
	if a, b := testWorld(t, 7), testWorld(t, 8); a.cats[cat(d01, 0)][0] == b.cats[cat(d01, 0)][0] && a.pool[0] == b.pool[0] {
		t.Error("seeds 7 and 8 built the same world")
	}
}

// TestMutationPairsKeepTheCategory: two streams mutating one category, as
// http-churn's two connections do, never take a registered object away, and
// once each has settled the category is as registered. The dense category
// makes a random vertex an object one time in ten.
func TestMutationPairsKeepTheCategory(t *testing.T) {
	w := testWorld(t, 11)
	m := newModel(w)
	c := cat(d1, 0)
	epoch := uint64(0)
	apply := func(o op) {
		t.Helper()
		if _, err := m.mutate(&o, func() (uint64, error) { epoch++; return epoch, nil }); err != nil {
			t.Fatal(err)
		}
		for _, v := range w.cats[c] {
			if _, ok := m.live[c][v]; !ok {
				t.Fatalf("after %d mutations registered object %d is gone", epoch, v)
			}
		}
	}
	streams := []*stream{newStream(w, workloads[0], 11, 0), newStream(w, workloads[0], 11, 1)}
	for i := 0; i < 999; i++ {
		apply(streams[i%3%2].mutation(c)) // uneven turns, so inserts and removes interleave
	}
	for _, st := range streams {
		if o, ok := st.settle(); ok {
			apply(o)
		}
	}
	if got, want := len(m.live[c]), len(w.cats[c]); got != want || want < 100 {
		t.Errorf("category has %d objects after the mutations, registered with %d", got, want)
	}
}

func TestPercentile(t *testing.T) {
	samples := make([]uint32, 1000)
	for i := range samples {
		samples[i] = uint32(i + 1) // 1..1000
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]uint32{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestQuietHalfKeepsTheFastestWindows(t *testing.T) {
	ms := time.Millisecond
	windows := []window{
		{elapsed: 250 * ms, ops: 100, reads: []uint32{5, 1}, probe: []uint32{40}},
		{elapsed: 250 * ms, ops: 50, reads: []uint32{700, 900}, writes: []uint32{9}, probe: []uint32{80}}, // a sag
		{elapsed: 500 * ms, ops: 220, reads: []uint32{3, 7}, writes: []uint32{2}, probe: []uint32{30}},    // ran over, and fastest
		{elapsed: 250 * ms}, // nothing completed: never kept, never counted
		{elapsed: 250 * ms, ops: 90, reads: []uint32{4}, probe: []uint32{50}},
		{elapsed: 250 * ms, ops: 60, reads: []uint32{800}, probe: []uint32{70}},
	}
	// Rates 400 200 440 - 360 240: of the five windows with operations the
	// three fastest are kept, in order of time.
	keep := quietHalf(windows)
	if want := []int{0, 2, 4}; !slices.Equal(keep, want) {
		t.Fatalf("quietHalf = %v, want %v", keep, want)
	}
	p := pool(windows, keep)
	// 410 operations in one second; the sag's samples are nowhere.
	if p.rate != 410 {
		t.Errorf("pooled rate = %g, want 410", p.rate)
	}
	if want := []uint32{1, 3, 4, 5, 7}; !slices.Equal(p.reads, want) {
		t.Errorf("pooled reads = %v, want %v", p.reads, want)
	}
	if !slices.Equal(p.writes, []uint32{2}) || !slices.Equal(p.probe, []uint32{30, 40, 50}) {
		t.Errorf("pooled writes = %v, probe = %v", p.writes, p.probe)
	}
	if got := quietHalf([]window{{elapsed: ms}}); len(got) != 0 {
		t.Errorf("quietHalf of an empty window = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
}

// TestFloorServesAndStops: the floor child answers round trips on every
// connection asked for, and is gone once closed.
func TestFloorServesAndStops(t *testing.T) {
	f, err := startFloor(2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.run(context.Background(), 2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.lat) < 10 || s.elapsed < 50*time.Millisecond {
		t.Errorf("floor made %d round trips in %v", len(s.lat), s.elapsed)
	}
	pid := f.cmd.Process.Pid
	f.close()
	if f.cmd.ProcessState == nil {
		t.Errorf("floor server %d was not waited for", pid)
	}
	if _, err := f.run(context.Background(), 1, time.Millisecond); err == nil {
		t.Error("a closed floor still answers")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([12, 10, 11, 15, 13, 14, 19, 16, 18, 17], n=4)
	// gives [11.75, 14.5, 17.25]; the median is 14.5.
	values := []float64{12, 10, 11, 15, 13, 14, 19, 16, 18, 17}
	want := (17.25 - 11.75) / 14.5
	if got := quartileSpread(values); math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) gives [1.0, 2.0, 4.0].
	if got := quartileSpread([]float64{4, 1, 2}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("quartileSpread of three = %v, want 1.5", got)
	}
}

func TestVerifierRejectsWrongAnswers(t *testing.T) {
	w := testWorld(t, 3)
	m := newModel(w)
	c := cat(d01, 3)
	m.setInitialEpoch(c, 0)
	objs := knn.NewObjectSet(w.g, w.cats[c])
	good := answer{cat: c, q: 5, k: 5, epoch: 0, results: knn.BruteForce(w.g, objs, 5, 5)}
	if !m.check(&good) {
		t.Fatal("the brute-force answer itself was rejected")
	}
	corrupt := good
	corrupt.results = append([]knn.Result(nil), good.results...)
	corrupt.results[2].Dist++
	if m.check(&corrupt) {
		t.Error("an answer with a wrong distance was accepted")
	}
	short := good
	short.results = good.results[:4]
	if m.check(&short) {
		t.Error("an answer missing a neighbour was accepted")
	}

	// A mutation moves the category to epoch 1: the old answer stays right
	// for epoch 0, is wrong if stamped 1 once its nearest object is gone,
	// and an epoch the model never saw is always wrong.
	remove := op{kind: opRemove, cat: c, verts: []int32{good.results[0].Vertex}}
	if _, err := m.mutate(&remove, func() (uint64, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if !m.check(&good) {
		t.Error("an epoch-0 answer was rejected after the category moved on")
	}
	stale := good
	stale.epoch = 1
	if m.check(&stale) {
		t.Error("an epoch-0 answer stamped with epoch 1 was accepted")
	}
	unknown := good
	unknown.epoch = 99
	if m.check(&unknown) {
		t.Error("an answer stamped with an epoch nobody produced was accepted")
	}
	if bad := m.countMismatches([]answer{good, corrupt, stale, good}, 2); bad != 2 {
		t.Errorf("countMismatches = %d, want 2", bad)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if b.Workloads[i].Name != wl.name || b.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the harness %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", wl.name, len(wl.why))
		}
	}
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness %d", kind, len(file), len(code))
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, def := range endToEnd {
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", def.Name, def.Bound)
		}
		if def.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %g above setup_s's %g, which must be the largest", def.Name, def.Bound, endToEnd[0].Bound)
		}
	}
}

// resultLines parses the JSON result line of every run in the output.
func resultLines(t *testing.T, out string) []result {
	t.Helper()
	var results []result
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad result line %q: %v", line, err)
		}
		results = append(results, r)
	}
	return results
}

// TestSmokeAllWorkloads drives the whole command — fixture child, rnknnd
// build and spawn, closed loop, write probe, verification, output — on the
// smallest ladder network for 300 ms per workload.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns rnknnd")
	}
	detail := filepath.Join(t.TempDir(), "detail.json")
	var stdout, stderr bytes.Buffer
	opts, err := parseFlags([]string{"-seconds", "0.3", "-seed", "5", "-workload", "all", "-trace", "0", "-out", detail}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if err := runAll(opts, "DE", &stdout, &stderr); err != nil {
		t.Fatalf("%v\nstderr:\n%s\nstdout:\n%s", err, &stderr, &stdout)
	}
	results := resultLines(t, stdout.String())
	if len(results) != len(workloads) {
		t.Fatalf("%d result lines for %d workloads", len(results), len(workloads))
	}
	for i, r := range results {
		name := workloads[i].name
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want the %d end-to-end ones", name, len(r.Metrics), len(endToEnd))
		}
		for _, def := range endToEnd {
			if m, ok := r.Metrics[def.Name]; !ok || m.Unit != def.Unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", name, def.Name, m, ok, def.Unit)
			}
		}
		if !strings.Contains(stdout.String(), name+" qps ") {
			t.Errorf("%s: no \"workload metric value unit\" line for qps", name)
		}
	}
	var d detailFile
	data, err := os.ReadFile(detail)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Runs) != len(workloads) || d.Seed != 5 || d.GoVersion == "" {
		t.Errorf("detail file: %d runs, seed %d, go %q", len(d.Runs), d.Seed, d.GoVersion)
	}
	for _, rd := range d.Runs {
		if rd.Checked == 0 || rd.ReadSamples == 0 || len(rd.Windows) == 0 {
			t.Errorf("%s: detail has %d checked answers, %d samples, %d windows", rd.Workload, rd.Checked, rd.ReadSamples, len(rd.Windows))
		}
	}
	leftovers, _ := filepath.Glob(filepath.Join("..", ".bench_build", "run-*"))
	if len(leftovers) != 0 {
		t.Errorf("work directories left behind: %v", leftovers)
	}
}

// TestTracedRunReportsEveryLayerMetric runs one traced run and checks the
// metric set. The regime-order assertions are about the real fixture; on
// this 1,389-vertex network they may not hold, so correctness is not
// asserted here.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns rnknnd")
	}
	benchDir, err := findBenchDir()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{benchDir: benchDir, work: t.TempDir(), network: "DE"}
	for _, name := range []string{"http-churn", "http-sharded", "http-batch", "lib-expand"} {
		_, rd, err := runWorkload(context.Background(), e, workloadByName(name), 5, 0.4, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rd.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want the %d per-layer ones", name, len(rd.Metrics), len(perLayer))
		}
		for _, def := range perLayer {
			if m, ok := rd.Metrics[def.Name]; !ok || m.Unit != def.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", name, def.Name, m, ok, def.Unit)
			}
		}
		if _, err := os.Stat(rd.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", name, err)
		}
		os.Remove(rd.TraceFile)
	}
}

func TestBuildServerFailureIsExplained(t *testing.T) {
	err := buildServer(context.Background(), t.TempDir(), filepath.Join(t.TempDir(), "rnknnd"))
	if err == nil || !strings.Contains(err.Error(), "go build rnknn/cmd/rnknnd") {
		t.Errorf("building outside the module: err = %v, want one naming the failed go build", err)
	}
}
