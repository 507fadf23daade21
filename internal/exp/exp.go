// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation (Section 7 and Appendices A-B), each
// regenerating the corresponding rows/series over the synthetic dataset
// ladder (knnexp -list prints the experiment index; package gen documents
// the dataset substitutions).
//
// It also holds what the serving packages do not carry: the Section 6
// implementation case studies — Figure 6's hashed matrix layouts
// (exp_layouts.go) and Figure 7's INE ladder (exp_ineladder.go) — and
// Distance Browsing, whose SILC index the harness builds itself (silc.go).
//
// Networks, engines and indexes are cached process-wide so a full run
// builds each index once, as the paper's scripts do.
package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

// Config scales the harness.
type Config struct {
	// Queries per measurement cell (default 100).
	Queries int
	// Seed for workload generation (default 42).
	Seed int64
	// Scale shrinks the harness networks (grid rows/cols multiplied by
	// sqrt(Scale)); 1.0 is the standard harness, tests use ~0.05.
	Scale float64
	// MaxDisBrwVertices caps the networks on which the SILC index is built
	// (default 25000), mirroring the paper's "first 5 datasets" limit.
	MaxDisBrwVertices int
}

func (c Config) withDefaults() Config {
	if c.Queries <= 0 {
		c.Queries = 100
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.MaxDisBrwVertices <= 0 {
		c.MaxDisBrwVertices = 25_000
	}
	return c
}

// Table is one experiment output: a titled grid whose first column labels
// the series (usually a method) and whose remaining columns are the
// parameter sweep.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// experiment is a registered experiment function.
type experiment struct {
	id    string
	title string
	run   func(h *Harness) []*Table
}

var registry []experiment

func register(id, title string, run func(h *Harness) []*Table) {
	registry = append(registry, experiment{id, title, run})
}

// IDs lists the registered experiment ids in registration order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Titles maps experiment ids to their titles.
func Titles() map[string]string {
	out := make(map[string]string, len(registry))
	for _, e := range registry {
		out[e.id] = e.title
	}
	return out
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) ([]*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(NewHarness(cfg)), nil
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
}

// Harness carries the configuration plus process-wide caches of generated
// networks and built engines.
type Harness struct {
	cfg Config
}

// NewHarness returns a harness for cfg.
func NewHarness(cfg Config) *Harness { return &Harness{cfg: cfg.withDefaults()} }

var (
	cacheMu sync.Mutex
	netsC   = map[string]*graph.Graph{}
	engC    = map[string]*core.Engine{}
)

// Network returns the harness network with the given ladder name, scaled by
// the configuration.
func (h *Harness) Network(name string) *graph.Graph {
	spec, ok := gen.LadderSpec(name)
	if !ok {
		panic("exp: unknown network " + name)
	}
	return h.network(spec)
}

// HighwayNetwork returns the ~95% degree-2 network of Figure 20.
func (h *Harness) HighwayNetwork() *graph.Graph {
	key := fmt.Sprintf("HWY/%v", h.cfg.Scale)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := netsC[key]; ok {
		return g
	}
	rows, cols := h.scaled(7), h.scaled(7)
	g := gen.HighwayNetwork("HWY", rows, cols, 99)
	netsC[key] = g
	return g
}

func (h *Harness) scaled(dim int) int {
	out := int(float64(dim) * math.Sqrt(h.cfg.Scale))
	if out < 5 {
		out = 5
	}
	return out
}

func (h *Harness) network(spec gen.NetworkSpec) *graph.Graph {
	key := fmt.Sprintf("%s/%v", spec.Name, h.cfg.Scale)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := netsC[key]; ok {
		return g
	}
	spec.Rows = h.scaled(spec.Rows)
	spec.Cols = h.scaled(spec.Cols)
	g := gen.Network(spec)
	netsC[key] = g
	return g
}

// Engine returns the cached engine for the named network under the given
// weight kind.
func (h *Harness) Engine(name string, kind graph.WeightKind) *core.Engine {
	g := h.Network(name).View(kind)
	key := fmt.Sprintf("%s/%v/%v", name, kind, h.cfg.Scale)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if e, ok := engC[key]; ok {
		return e
	}
	e := core.New(g)
	engC[key] = e
	return e
}

// EngineFor returns an engine for an arbitrary (non-ladder) graph, cached
// by the graph's name.
func (h *Harness) EngineFor(g *graph.Graph) *core.Engine {
	key := fmt.Sprintf("custom/%s/%v/%v", g.Name, g.Kind, h.cfg.Scale)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if e, ok := engC[key]; ok {
		return e
	}
	e := core.New(g)
	engC[key] = e
	return e
}

// Medium and Large are the default networks (the paper's NW and US roles);
// SILCNet is the largest network the harness builds SILC on.
const (
	Medium = "NW"
	Large  = "E"
)

// DisBrwAllowed reports whether the harness builds SILC for the network.
func (h *Harness) DisBrwAllowed(name string) bool {
	return h.Network(name).NumVertices() <= h.cfg.MaxDisBrwVertices
}

// Queries returns the query workload for a network.
func (h *Harness) Queries(name string) []int32 {
	return gen.QueryVertices(h.Network(name), h.cfg.Queries, h.cfg.Seed+1000)
}

// UniformObjects returns a cached-free uniform object set of the given
// density on the named network.
func (h *Harness) UniformObjects(name string, density float64) *knn.ObjectSet {
	g := h.Network(name)
	return knn.NewObjectSet(g, gen.Uniform(g, density, h.cfg.Seed+int64(density*1e7)))
}

// Measure runs the workload and returns mean microseconds per query.
func Measure(m knn.Method, queries []int32, k int) float64 {
	// Warm up caches and lazily allocated state.
	for i := 0; i < 2 && i < len(queries); i++ {
		m.KNN(queries[i], k)
	}
	start := time.Now()
	for _, q := range queries {
		m.KNN(q, k)
	}
	return float64(time.Since(start).Microseconds()) / float64(len(queries))
}

// DefaultK and DefaultDensity are the paper's defaults (Table 4).
const (
	DefaultK       = 10
	DefaultDensity = 0.001
)

// Ks and Densities are the paper's sweep values (Table 4).
var (
	Ks        = []int{1, 5, 10, 25, 50}
	Densities = []float64{0.0001, 0.001, 0.01, 0.1, 1}
)

// DistMethods returns the methods compared on travel-distance networks
// (DisBrw included only where SILC is built, as in the paper).
func (h *Harness) DistMethods(name string) []method {
	ms := h.TimeMethods()
	if h.DisBrwAllowed(name) {
		ms = append(ms, disBrw)
	}
	return ms
}

// TimeMethods returns the methods compared on travel-time networks (no
// DisBrw, Section B).
func (h *Harness) TimeMethods() []method {
	return served(core.INE, core.ROAD, core.Gtree, core.IERGt, core.IERPHL)
}

// fmtUS formats a microsecond measurement.
func fmtUS(us float64) string {
	switch {
	case us >= 1000:
		return fmt.Sprintf("%.0f", us)
	case us >= 10:
		return fmt.Sprintf("%.1f", us)
	default:
		return fmt.Sprintf("%.2f", us)
	}
}

// fmtBytes formats a size in a human unit.
func fmtBytes(b int) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// rankRow converts measurements to dense ranks (1 = fastest), used by the
// Table 5 reproduction.
func rankRow(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	ranks := make([]int, len(vals))
	rank := 0
	var prev float64
	for pos, i := range idx {
		if pos == 0 || vals[i] > prev*1.10 { // within 10% of the previous
			rank = pos + 1 // value counts as a tie
		}
		ranks[i] = rank
		prev = vals[i]
	}
	return ranks
}
