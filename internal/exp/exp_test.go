package exp_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rnknn/internal/exp"
	"rnknn/internal/knn"
)

// smallCfg shrinks every harness network so the full experiment set runs in
// seconds. The point of these tests is that every experiment executes and
// produces well-formed tables, not the measurements themselves.
var smallCfg = exp.Config{Queries: 4, Scale: 0.012, Seed: 7}

// shapeCfg is smallCfg with SILC built on the ladder up to NW only, so the
// golden shapes also pin where Distance Browsing is left out: its "-"
// cells on the larger rungs, and its "N/A" in Table 5's E row.
var shapeCfg = exp.Config{Queries: 4, Scale: 0.012, Seed: 7, MaxDisBrwVertices: 250}

var update = flag.Bool("update", false, "rewrite testdata/shapes.golden from this run")

// shape renders what a table promises beyond its measurements: id, title,
// header and row labels verbatim, and each cell as "#" unless it is a
// placeholder ("-", "N/A"), which stays where it sits.
func shape(tab *exp.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s\n", tab.ID, tab.Title, strings.Join(tab.Header, "\t"))
	for _, row := range tab.Rows {
		cells := slices.Clone(row)
		for i, c := range cells[1:] {
			if c != "-" && c != "N/A" {
				cells[i+1] = "#"
			}
		}
		b.WriteString(strings.Join(cells, "\t") + "\n")
	}
	return b.String()
}

// TestEveryExperimentRuns runs every experiment at shapeCfg, checks each
// table is well formed, and compares the tables' shapes with
// testdata/shapes.golden (go test -run TestEveryExperimentRuns -update
// rewrites it after an intended change).
func TestEveryExperimentRuns(t *testing.T) {
	var shapes strings.Builder
	ids := exp.IDs()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	for _, id := range ids {
		tables, err := exp.Run(id, shapeCfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		for _, tab := range tables {
			if tab.ID == "" || tab.Title == "" {
				t.Fatalf("%s: table missing id/title", id)
			}
			if len(tab.Header) < 2 || len(tab.Rows) == 0 {
				t.Fatalf("%s/%s: degenerate table", id, tab.ID)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("%s/%s: row width %d != header %d (%v)", id, tab.ID, len(row), len(tab.Header), row)
				}
			}
			s := tab.String()
			if !strings.Contains(s, tab.ID) {
				t.Fatalf("%s: rendering lost the id", id)
			}
			shapes.WriteString(shape(tab))
		}
	}
	golden := filepath.Join("testdata", "shapes.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(shapes.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(shapes.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		g, w := "<end>", "<end>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %q\nwant %q", golden, i+1, g, w)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := exp.Run("nope", smallCfg); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestTitlesCoverIDs(t *testing.T) {
	titles := exp.Titles()
	for _, id := range exp.IDs() {
		if titles[id] == "" {
			t.Fatalf("missing title for %s", id)
		}
	}
}

// TestDistanceBrowsingRows: the serving build does not carry Distance
// Browsing, so the harness builds it itself; every figure that compares it
// still prints its rows (table5 ranks it in a column), and at smallCfg,
// where SILC fits on every network, each of them holds a measurement.
func TestDistanceBrowsingRows(t *testing.T) {
	for id, want := range map[string][]string{
		"table5": {"DisBrw"},
		"fig8":   {"DisBrw(SILC)"},
		"fig9":   {"DisBrw"},
		"fig10":  {"DisBrw"},
		"fig11":  {"DisBrw"},
		"fig13":  {"DisBrw"},
		"fig14":  {"DisBrw"},
		"fig16":  {"DisBrw"},
		"fig19":  {"DisBrw-OH", "DisBrw"},
		"fig20":  {"DisBrw", "OptDisBrw"},
	} {
		tables, err := exp.Run(id, smallCfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range tables {
			if tab.ID == "fig9b" { // method statistics: no Distance Browsing row
				continue
			}
			if id == "table5" {
				col := slices.Index(tab.Header, "DisBrw")
				if col < 0 {
					t.Fatalf("%s: no DisBrw column in %v", tab.ID, tab.Header)
				}
				for _, row := range tab.Rows {
					if row[col] == "N/A" {
						t.Errorf("%s/%s: DisBrw not ranked", tab.ID, row[0])
					}
				}
				continue
			}
			var labels []string
			for _, row := range tab.Rows {
				labels = append(labels, row[0])
				if slices.Contains(want, row[0]) && slices.Contains(row[1:], "-") {
					t.Errorf("%s: %s row has a missing cell: %v", tab.ID, row[0], row)
				}
			}
			for _, w := range want {
				if !slices.Contains(labels, w) {
					t.Errorf("%s: no %s row in %v", tab.ID, w, labels)
				}
			}
		}
	}
}

// noopMethod answers every query with nothing, at once.
type noopMethod struct{}

func (noopMethod) Name() string                                            { return "noop" }
func (noopMethod) KNN(int32, int) []knn.Result                             { return nil }
func (noopMethod) KNNAppend(_ int32, _ int, dst []knn.Result) []knn.Result { return dst }

// countingMethod is noopMethod counting its KNN calls.
type countingMethod struct {
	noopMethod
	calls *int
}

func (c countingMethod) KNN(int32, int) []knn.Result { *c.calls++; return nil }

// TestMeasureResolvesSubMicrosecond checks Measure keeps the resolution of
// the clock: 20 queries that each take a few nanoseconds still measure a
// positive time, where whole microseconds would round the loop to 0. And
// it repeats them until the timed window is long enough to resolve.
func TestMeasureResolvesSubMicrosecond(t *testing.T) {
	queries := make([]int32, 20)
	calls := 0
	if us := exp.Measure(countingMethod{calls: &calls}, queries, 10); !(us > 0) {
		t.Fatalf("Measure of a no-op method over 20 queries = %v µs, want > 0", us)
	}
	if calls <= 2+len(queries) {
		t.Fatalf("Measure ran %d no-op queries, want the list repeated past its 2 warm-ups and one pass", calls)
	}
}
