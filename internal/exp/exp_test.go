package exp_test

import (
	"slices"
	"strings"
	"testing"

	"rnknn/internal/exp"
)

// smallCfg shrinks every harness network so the full experiment set runs in
// seconds. The point of these tests is that every experiment executes and
// produces well-formed tables, not the measurements themselves.
var smallCfg = exp.Config{Queries: 4, Scale: 0.012, Seed: 7}

func TestEveryExperimentRuns(t *testing.T) {
	ids := exp.IDs()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	for _, id := range ids {
		tables, err := exp.Run(id, smallCfg)
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
// still prints its rows (table5 ranks it in a column), and every one of
// them holds a measurement.
func TestDistanceBrowsingRows(t *testing.T) {
	for id, want := range map[string][]string{
		"table5": {"DisBrw"},
		"fig10":  {"DisBrw"},
		"fig11":  {"DisBrw"},
		"fig19":  {"DisBrw-OH", "DisBrw"},
		"fig20":  {"DisBrw", "OptDisBrw"},
	} {
		tables, err := exp.Run(id, smallCfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range tables {
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
