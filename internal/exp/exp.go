// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation (Section 7 and Appendices A-B), each
// regenerating the corresponding rows/series over the synthetic dataset
// ladder (knnexp -list prints the experiment index; package gen documents
// the dataset substitutions).
//
// It also holds what the serving packages do not carry: the Section 6
// implementation case studies — Figure 6's hashed matrix layouts
// (exp_layouts.go) and Figure 7's INE ladder (exp_ineladder.go) — and the
// methods the serving build does not carry (method.go): IER over the
// Dijkstra and G-tree oracles, and Distance Browsing, whose SILC index the
// harness builds itself.
//
// Networks, engines and indexes are cached process-wide so a full run
// builds each index once, as the paper's scripts do.
package exp

import (
	"fmt"
	"math"
	"slices"
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

// grid builds every table of the harness: a row per label in rows, a column
// per label in cols under the corner label, and cell (r, c) from cell,
// filled row by row. What a row or a column builds once (a session, an
// object set, an index) the caller keeps: measure rebuilds a row's method
// only when its object set changes, and memo keeps a value per index.
func grid(id, title, corner string, rows, cols []string, cell func(r, c int) string) *Table {
	t := &Table{ID: id, Title: title, Header: append([]string{corner}, cols...)}
	for r, label := range rows {
		row := []string{label}
		for c := range cols {
			row = append(row, cell(r, c))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// memo returns f with each result kept after its first call.
func memo[T any](f func(i int) T) func(i int) T {
	done := map[int]T{}
	return func(i int) T {
		v, ok := done[i]
		if !ok {
			v = f(i)
			done[i] = v
		}
		return v
	}
}

// byRow is the cell function of a table whose row r is computed whole, once.
func byRow(row func(r int) []string) func(r, c int) string {
	rows := memo(row)
	return func(r, c int) string { return rows(r)[c] }
}

// labels formats each value as a row or column label.
func labels[T any](format string, vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}

// col is one column of a query figure: its label, and the k and object set
// its cells query with.
type col struct {
	label string
	k     int
	objs  *knn.ObjectSet
}

func (c col) String() string { return c.label }

// kCols sweeps the paper's k values over one object set.
func kCols(objs *knn.ObjectSet) []col {
	out := make([]col, len(Ks))
	for i, k := range Ks {
		out[i] = col{fmt.Sprintf("k=%d", k), k, objs}
	}
	return out
}

// densityCols sweeps the paper's densities on net at the default k, one
// object set per density.
func (h *Harness) densityCols(net string) []col {
	out := make([]col, len(Densities))
	for i, d := range Densities {
		out[i] = col{fmt.Sprintf("d=%g", d), DefaultK, h.UniformObjects(net, d)}
	}
	return out
}

// clusterCols sweeps 1 to 1000 clusters of at most 5 objects on g at the
// default k (Figures 12a and 24d).
func (h *Harness) clusterCols(g *graph.Graph) []col {
	var out []col
	for _, c := range []int{1, 10, 100, 1000} {
		out = append(out, col{fmt.Sprintf("|C|=%d", c), DefaultK, knn.NewObjectSet(g, gen.Clustered(g, c, 5, h.cfg.Seed+int64(c)))})
	}
	return out
}

// measure is grid for a query figure: cell (r, c) is the mean µs per query
// of build(r, objs) over queries at column c's k and object set.
func measure(id, title, corner string, rows []string, cols []col, queries []int32, build func(r int, objs *knn.ObjectSet) knn.Method) *Table {
	return grid(id, title, corner, rows, labels("%v", cols), byRow(func(r int) []string {
		return measureRow(cols, queries, func(objs *knn.ObjectSet) knn.Method { return build(r, objs) })
	}))
}

// measureRow is one row of measure. Its method is built once per object
// set: once in a k sweep, once per cell in a sweep over object sets.
func measureRow(cols []col, queries []int32, build func(objs *knn.ObjectSet) knn.Method) []string {
	out := make([]string, len(cols))
	var m knn.Method
	for c, col := range cols {
		if c == 0 || col.objs != cols[c-1].objs {
			m = build(col.objs)
		}
		out[c] = fmtUS(Measure(m, queries, col.k))
	}
	return out
}

// compare measures the methods ms on net's wk engine with net's query
// workload: the "method" rows of most figures.
func (h *Harness) compare(id, title, net string, wk graph.WeightKind, ms []method, cols []col) *Table {
	return measure(id, title, "method", labels("%v", ms), cols, h.Queries(net), h.sessions(h.Engine(net, wk), ms))
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
	cache   = map[string]any{}
)

// cached returns the process-wide value stored under key, building it on
// first use. build runs under the cache's lock, so it must not call cached.
func cached[T any](key string, build func() T) T {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if v, ok := cache[key]; ok {
		return v.(T)
	}
	v := build()
	cache[key] = v
	return v
}

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
	return cached(fmt.Sprintf("HWY/%v", h.cfg.Scale), func() *graph.Graph {
		return gen.HighwayNetwork("HWY", h.scaled(7), h.scaled(7), 99)
	})
}

func (h *Harness) scaled(dim int) int {
	return max(int(float64(dim)*math.Sqrt(h.cfg.Scale)), 5)
}

func (h *Harness) network(spec gen.NetworkSpec) *graph.Graph {
	return cached(fmt.Sprintf("%s/%v", spec.Name, h.cfg.Scale), func() *graph.Graph {
		spec.Rows, spec.Cols = h.scaled(spec.Rows), h.scaled(spec.Cols)
		return gen.Network(spec)
	})
}

// Engine returns the cached engine for the named network under the given
// weight kind.
func (h *Harness) Engine(name string, kind graph.WeightKind) *core.Engine {
	return h.EngineFor(h.Network(name).View(kind))
}

// EngineFor returns the engine over g, cached by g's name and weight kind.
func (h *Harness) EngineFor(g *graph.Graph) *core.Engine {
	return cached(fmt.Sprintf("engine/%s/%v/%v", g.Name, g.Kind, h.cfg.Scale), func() *core.Engine {
		return core.New(g)
	})
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

// minWindow is the least time Measure's timed window spans: the query
// list is repeated until it is reached, so one interrupt or timer tick
// cannot decide a sub-microsecond cell.
const minWindow = 100 * time.Microsecond

// Measure runs the workload and returns mean microseconds per query: the
// query list, repeated until the window spans at least minWindow, divided
// by the number of queries run. It divides the elapsed nanoseconds, so a
// cell keeps its resolution however short the queries are.
func Measure(m knn.Method, queries []int32, k int) float64 {
	// Warm up caches and lazily allocated state.
	for i := 0; i < 2 && i < len(queries); i++ {
		m.KNN(queries[i], k)
	}
	ran := 0
	start := time.Now()
	for {
		for _, q := range queries {
			m.KNN(q, k)
		}
		ran += len(queries)
		if ran == 0 || time.Since(start) >= minWindow {
			break
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(ran)
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
	return slices.Insert(served(core.INE, core.ROAD, core.Gtree, core.IERPHL), 3, ierGt)
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
