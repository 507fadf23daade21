// Command rnbench is this repository's benchmark: six named closed-loop
// workloads against the library and the real rnknnd binary, end-to-end
// metrics measured untraced, per-layer metrics from a separate traced run,
// every kept answer checked against brute force. README.md in this
// directory defines every workload and metric; BENCHMARK.json at the
// repository root is the contract the numbers are gated by.
//
//	bash bench/run.sh --workload http-hot --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload all --trace 2 --repeat 3
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"rnknn/internal/gen"
)

func main() {
	if dir := os.Getenv(fixtureEnv); dir != "" {
		os.Exit(fixtureMain(dir, os.Args[1:]))
	}
	if os.Getenv(floorEnv) != "" {
		os.Exit(floorMain())
	}
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "rnbench: not pinned to one CPU, expect noisier numbers:", err)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	out      string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("rnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input: objects, query streams, mutations")
	fs.Float64Var(&o.seconds, "seconds", 12, "timed seconds per run (warm-up comes on top)")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; 2: one after the other")
	fs.IntVar(&o.repeat, "repeat", 1, "repeat the selected runs this many times with the one seed and print each end-to-end metric's min/median/max and spread against its bound")
	fs.StringVar(&o.out, "out", "", "detail JSON path (default: detail.json in the work directory, printed at exit)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case o.workload != "all" && workloadByName(o.workload) == nil:
		return o, fmt.Errorf("unknown workload %q", o.workload)
	case o.seconds <= 0:
		return o, fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	case o.trace < 0 || o.trace > 2:
		return o, fmt.Errorf("-trace must be 0, 1 or 2, got %d", o.trace)
	case o.repeat < 1:
		return o, fmt.Errorf("-repeat must be at least 1, got %d", o.repeat)
	}
	return o, nil
}

// env is where one invocation works: every file it writes and every
// process it starts lives under work, which run removes on every exit path.
type env struct {
	benchDir string // this module's directory
	work     string // scratch directory inside the checkout
	server   string // rnknnd binary, built on first use
	network  string // fixtureNetwork; the tests run a smaller one
}

// findBenchDir locates this module's directory from the repository root or
// from inside it — the two places the command is started from.
func findBenchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module rnknn/bench\n") {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or from bench/: no rnknn/bench go.mod found")
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "rnbench:", err)
		}
		return 2
	}
	if err := runAll(opts, fixtureNetwork, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "rnbench:", err)
		return 1
	}
	return 0
}

func runAll(opts options, network string, stdout, stderr io.Writer) error {
	benchDir, err := findBenchDir()
	if err != nil {
		return err
	}
	buildRoot := filepath.Join(filepath.Dir(benchDir), ".bench_build")
	if err := os.MkdirAll(buildRoot, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// SIGINT and SIGTERM cancel ctx; every loop and child start checks it,
	// so the deferred clean-up above and in runWorkload runs on that path too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e := &env{benchDir: benchDir, work: work, network: network}
	selected := workloads
	if opts.workload != "all" {
		selected = []*workload{workloadByName(opts.workload)}
	}
	var traces []bool
	if opts.trace != 1 {
		traces = append(traces, false)
	}
	if opts.trace != 0 {
		traces = append(traces, true)
	}

	detail := detailFile{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Commit:    gitCommit(benchDir),
		Seed:      opts.seed,
		Seconds:   opts.seconds,
	}
	wrong := 0
	for rep := 0; rep < opts.repeat; rep++ {
		for _, wl := range selected {
			for _, traced := range traces {
				res, rd, err := runWorkload(ctx, e, wl, opts.seed, opts.seconds, traced)
				if err != nil {
					return fmt.Errorf("%s: %w", wl.name, err)
				}
				detail.Runs = append(detail.Runs, rd)
				printMetrics(stdout, wl.name, rd)
				line, err := json.Marshal(res)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "%s\n", line)
				if !res.Correct {
					wrong++
					fmt.Fprintf(stderr, "rnbench: %s: %d of %d operations failed or were answered wrongly: %s\n", wl.name, res.Failed, res.Attempted, rd.FirstError)
				}
			}
		}
	}
	if opts.repeat > 1 {
		printRepeatSummary(stdout, detail.Runs)
	}
	out := opts.out
	if out == "" {
		// The default lives beside the work directory, which is removed.
		out = filepath.Join(buildRoot, "detail.json")
	}
	if err := writeDetail(out, &detail); err != nil {
		return err
	}
	fmt.Fprintln(stderr, "rnbench: detail written to", out)
	if wrong > 0 {
		return fmt.Errorf("%d run(s) had failed or wrong operations", wrong)
	}
	return nil
}

// gitCommit names the measured commit when the checkout is a git
// repository; the benchmark driver's checkouts are not.
func gitCommit(dir string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// serverBinary builds rnknnd once per invocation.
func (e *env) serverBinary(ctx context.Context) (string, error) {
	if e.server == "" {
		bin := filepath.Join(e.work, "rnknnd")
		if err := buildServer(ctx, e.benchDir, bin); err != nil {
			return "", err
		}
		e.server = bin
	}
	return e.server, nil
}

// bringUp starts wl's measured system over the fixture in dir.
func (e *env) bringUp(ctx context.Context, wl *workload, dir string, w *world, m *model) (system, error) {
	if wl.target == targetLib {
		return openLib(dir, w, m)
	}
	bin, err := e.serverBinary(ctx)
	if err != nil {
		return nil, err
	}
	return startServer(ctx, bin, dir, e.network, wl.target == targetSharded, wl.clients, w, m)
}

const bringUps = 3 // set-ups per run; setup_s reports their median

// runWorkload is one run: fixture, bring-up, warm-up, timed closed loop (or
// the traced replay), verification.
func runWorkload(ctx context.Context, e *env, wl *workload, seed int64, seconds float64, traced bool) (result, runDetail, error) {
	rd := runDetail{Workload: wl.name, Traced: traced, Metrics: map[string]metric{}}
	// An invocation that makes several runs must not report an earlier
	// run's memory as this one's peak: give the heap back and reset this
	// process's VmHWM (writing 5 to clear_refs does that; best effort).
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	if wl.target != targetLib {
		// Compiling is not set-up: do it before any clock starts.
		if _, err := e.serverBinary(ctx); err != nil {
			return result{}, rd, err
		}
	}
	spec, _ := gen.LadderSpec(e.network)
	g := gen.Network(spec)
	w := newWorld(g, seed)
	m := newModel(w)

	dir, err := os.MkdirTemp(e.work, "fixture-")
	if err != nil {
		return result{}, rd, err
	}
	defer os.RemoveAll(dir)
	fx, fixtureTime, err := buildFixture(ctx, dir, e.network)
	if err != nil {
		return result{}, rd, err
	}
	rd.Fixture = fx

	// Bring the system up several times and keep the last: the median
	// bring-up time is steadier than one sample, and a set-up cost that
	// only shows on a second start would otherwise go unseen.
	var sys system
	var ups []float64
	for i := 0; i < bringUps; i++ {
		if sys != nil {
			sys.close()
		}
		start := time.Now()
		if sys, err = e.bringUp(ctx, wl, dir, w, m); err != nil {
			return result{}, rd, err
		}
		ups = append(ups, time.Since(start).Seconds())
	}
	closed := false
	closeSys := func() {
		if !closed {
			closed = true
			rd.ServerStderr = sys.close()
		}
	}
	defer closeSys()
	setup := fixtureTime.Seconds() + median(ups)
	rd.FixtureSeconds, rd.BringUpSeconds = fixtureTime.Seconds(), ups

	if traced {
		res, err := runTraced(ctx, e, wl, w, m, sys, dir, seed, seconds, &rd)
		return res, rd, err
	}

	// The timed run is cut into quarter-second windows (at least four, for
	// the short smoke runs), a write-probe burst and, over HTTP, a slice of
	// floor traffic before each; the metrics come from the quiet half of
	// the windows.
	timed := time.Duration(seconds * float64(time.Second))
	numWindows := max(4, int(seconds*4))
	res := result{Metrics: rd.Metrics}
	timedLoop := loop{wl: wl, w: w, sys: sys, m: m, seed: seed, length: timed / time.Duration(numWindows), windows: numWindows,
		probe: newStream(w, wl, seed, probeClient)}
	if wl.target != targetLib {
		if timedLoop.floor, err = startFloor(wl.clients); err != nil {
			return result{}, rd, err
		}
		defer timedLoop.floor.close()
		if _, err := timedLoop.floor.run(ctx, wl.clients, 5*floorSlice); err != nil { // its own warm-up
			return result{}, rd, err
		}
	}
	warmUp(ctx, wl, w, sys, m, seed, min(2*time.Second, timed/5))
	// Collect the warm-up's garbage, so an in-process DB's run does not
	// start on a heap in whatever state it left.
	runtime.GC()
	if rd.Before, err = sys.counters(); err != nil {
		return result{}, rd, err
	}
	ls := timedLoop.run(ctx)
	if err := ctx.Err(); err != nil {
		return result{}, rd, err
	}
	if rd.After, err = sys.counters(); err != nil {
		return result{}, rd, err
	}
	rss, err := sys.rssMB()
	if err != nil {
		return result{}, rd, err
	}
	closeSys()
	tally(&ls, &res, &rd)
	verify(m, ls.kept, wl.clients+1, &res, &rd)

	keep := quietHalf(ls.windows)
	quiet := pool(ls.windows, keep)
	every := make([]int, len(ls.windows))
	for i := range every {
		every[i] = i
	}
	whole := pool(ls.windows, every)
	rd.recordWindows(ls.windows, keep)
	rd.ReadSamples, rd.WriteSamples = len(quiet.reads), len(quiet.writes)
	rd.ReadLadderUS = ladder(whole.reads)
	rd.WriteLadderUS = ladder(whole.writes)

	rd.Metrics["setup_s"] = metric{setup, "s"}
	qps, p50, p99 := quiet.rate, percentile(quiet.reads, 50), percentile(quiet.reads, 99)
	// A workload with mutations in its stream reports those, made under
	// read load; the others report the probe bursts.
	writes := quiet.probe
	if len(quiet.writes) > 0 {
		writes = quiet.writes
	}
	writeP50 := percentile(writes, 50)
	rd.Raw = map[string]float64{"qps": qps, "p50_us": p50 / 1e3, "p99_us": p99 / 1e3, "write_p50_us": writeP50 / 1e3}
	if len(quiet.floor) > 0 {
		// Take the host's share out: see "The floor" in README.md.
		fl := floorReading{quiet.floorRate, percentile(quiet.floor, 50), percentile(quiet.floor, 99), len(quiet.floor)}
		rd.Floor = &fl
		slowdown := fl.P50 / floorRefP50
		qps *= slowdown
		p50 /= slowdown
		writeP50 /= slowdown
		if wl.floorTail {
			p99 /= fl.P99 / floorRefP99
		} else {
			p99 /= slowdown
		}
	}
	rd.Metrics["qps"] = metric{qps, "1/s"}
	rd.Metrics["p50_us"] = metric{p50 / 1e3, "us"}
	rd.Metrics["p99_us"] = metric{p99 / 1e3, "us"}
	rd.Metrics["write_p50_us"] = metric{writeP50 / 1e3, "us"}
	rd.Metrics["rss_mb"] = metric{rss, "MB"}
	rd.Metrics["ok_ratio"] = metric{1 - float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio"}
	return res, rd, nil
}
