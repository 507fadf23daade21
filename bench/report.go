package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metric is one reported number with its unit, in the result line's shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef declares a metric; BENCHMARK.json lists the same declarations
// (the metrics test keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, reported by every untraced run. Bound is
// the share of the parent's median a metric may worsen by; README.md gives
// the run-to-run spreads the bounds were set against. ok_ratio is the
// issue's fail_ratio turned round, 1 - failed/attempted, because a relative
// bound means nothing on a metric that reads 0; its bound is fail_ratio's
// +0.001. Any failed or wrongly answered operation fails the run besides.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p99_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.15},
	{"ok_ratio", "ratio", "higher", 0.001},
}

// ladder is the percentile ladder the detail file records, in µs.
func ladder(sorted []uint32) map[string]float64 {
	if len(sorted) == 0 {
		return nil
	}
	return map[string]float64{
		"p50":  percentile(sorted, 50) / 1e3,
		"p90":  percentile(sorted, 90) / 1e3,
		"p99":  percentile(sorted, 99) / 1e3,
		"p999": percentile(sorted, 99.9) / 1e3,
		"max":  float64(sorted[len(sorted)-1]) / 1e3,
	}
}

// runDetail is everything one run recorded — enough to explain a
// surprising number without running again.
type runDetail struct {
	Workload       string             `json:"workload"`
	Traced         bool               `json:"traced"`
	Metrics        map[string]metric  `json:"metrics"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Checked        int                `json:"checked"` // answers compared with brute force
	FirstError     string             `json:"first_error,omitempty"`
	Fixture        fixtureInfo        `json:"fixture"`
	FixtureSeconds float64            `json:"fixture_seconds"`
	BringUpSeconds []float64          `json:"bring_up_seconds"`
	Windows        []int              `json:"windows,omitempty"`       // completed ops per window
	WindowMS       []float64          `json:"window_ms,omitempty"`     // each window's elapsed time
	WindowKept     []int              `json:"window_kept,omitempty"`   // the quiet half: indices of the windows the metrics come from
	WindowP50US    []float64          `json:"window_p50_us,omitempty"` // each window's read percentiles
	WindowP99US    []float64          `json:"window_p99_us,omitempty"`
	WindowProbeUS  []float64          `json:"window_probe_us,omitempty"` // the median of the write-probe burst before each window
	Raw            map[string]float64 `json:"raw,omitempty"`             // the timing metrics before floor scaling
	Floor          *floorReading      `json:"floor,omitempty"`           // the floor beside the quiet half, ns
	ReadSamples    int                `json:"read_samples"`              // behind p50_us and p99_us: the quiet half's
	WriteSamples   int                `json:"write_samples"`
	ReadLadderUS   map[string]float64 `json:"read_us,omitempty"`  // all windows
	WriteLadderUS  map[string]float64 `json:"write_us,omitempty"` // the timed loop's own mutations, all windows
	Before         counters           `json:"counters_before"`
	After          counters           `json:"counters_after"`
	ServerStderr   string             `json:"server_stderr,omitempty"`
	TraceFile      string             `json:"trace_file,omitempty"`
}

// recordWindows files the per-window series of a timed loop.
func (rd *runDetail) recordWindows(windows []window, keep []int) {
	rd.WindowKept = keep
	for i := range windows {
		w := &windows[i]
		sortU32(w.reads)
		sortU32(w.probe)
		rd.Windows = append(rd.Windows, w.ops)
		rd.WindowMS = append(rd.WindowMS, float64(w.elapsed)/1e6)
		rd.WindowP50US = append(rd.WindowP50US, percentile(w.reads, 50)/1e3)
		rd.WindowP99US = append(rd.WindowP99US, percentile(w.reads, 99)/1e3)
		rd.WindowProbeUS = append(rd.WindowProbeUS, percentile(w.probe, 50)/1e3)
	}
}

// note records msg as the run's first error unless one is recorded already.
func (rd *runDetail) note(msg string) {
	if rd.FirstError == "" {
		rd.FirstError = msg
	}
}

// detailFile is the -out JSON document.
type detailFile struct {
	GoVersion string      `json:"go_version"`
	NumCPU    int         `json:"nproc"`
	Commit    string      `json:"commit"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Runs      []runDetail `json:"runs"`
}

func writeDetail(path string, d *detailFile) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics prints one "workload metric value unit" line per metric.
func printMetrics(w io.Writer, workload string, rd runDetail) {
	names := make([]string, 0, len(rd.Metrics))
	for name := range rd.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rd.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s fail_ratio %.6g ratio\n", workload, float64(rd.Failed)/float64(max(rd.Attempted, 1)))
	if fl := rd.Floor; fl != nil {
		// For reading, not gated: the timings as the clock gave them, and
		// the floor they were scaled by.
		for _, def := range endToEnd {
			if raw, ok := rd.Raw[def.Name]; ok {
				fmt.Fprintf(w, "%s raw.%s %.6g %s\n", workload, def.Name, raw, def.Unit)
			}
		}
		fmt.Fprintf(w, "%s floor.p50_us %.6g us\n%s floor.p99_us %.6g us\n", workload, fl.P50/1e3, workload, fl.P99/1e3)
	}
}

// printRepeatSummary prints, for every workload and end-to-end metric, the
// minimum, median and maximum over the repeated untraced runs and the
// quartile spread as a share of the metric's bound — the A/A check.
func printRepeatSummary(w io.Writer, runs []runDetail) {
	fmt.Fprintln(w, "# repeat summary: workload metric min median max unit spread spread/bound")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			var values []float64
			for _, rd := range runs {
				if rd.Workload == wl.name && !rd.Traced {
					values = append(values, rd.Metrics[def.Name].Value)
				}
			}
			if len(values) < 2 {
				continue
			}
			sort.Float64s(values)
			spread := quartileSpread(values)
			fmt.Fprintf(w, "# %s %s %.6g %.6g %.6g %s %.4f %.2f\n", wl.name, def.Name,
				values[0], median(values), values[len(values)-1], def.Unit, spread, spread/def.Bound)
		}
	}
}
