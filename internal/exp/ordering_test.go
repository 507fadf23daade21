package exp_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"rnknn/internal/exp"
)

// margin is how much faster the winner of an asserted pair must be. Every
// pair below was ordered by at least 2.5x on all three seeds in two passes
// at the time of writing, so only a change that costs a method half its
// lead, or noise beyond anything the fastest of three runs has shown, fails.
const margin = 2

// TestPaperOrdering holds the harness to the orderings the paper's verdicts
// rest on: Table 5's Default, Small k, Large k and Low density rows, read
// off Figures 10 and 11, and the same verdicts under travel time (Figures
// 17 and 24). It runs fig4, fig10, fig11, fig17 and fig24 at Scale 0.1 on
// seeds 42, 1 and 2 and asserts only pairs that held with a 2x margin on
// all three:
//
//	(a) IER-PHL is fastest in every fig10, fig17a and fig24a column, on NW
//	    and on E;
//	(b) IER-PHL is fastest in fig11, fig17b and fig24b at d <= 0.01;
//	(c) INE beats IER-PHL and Gtree at d = 1, and IER-PHL at d = 0.1 on E
//	    under travel time (fig17b);
//	(d) Gtree beats ROAD at d <= 0.001 in fig11, fig17b and fig24b, and in
//	    every fig10 column on NW;
//	(e) the serving build's rule: IER-Dijk and IER-Gt, which only the
//	    harness builds, are beaten by some method of the serving set {INE,
//	    IER-PHL, Gtree} in every cell of these figures. fig4 has no INE or
//	    Gtree row, so its cells are also compared with fig10a's and fig11a's,
//	    which measure the same queries and objects on NW;
//	(f) IER-PHL beats IER-TNR in every fig4 cell: of the two hub-based
//	    oracles under distance weights, the labeling is the faster one.
//
// Left out as near-ties: INE against IER-PHL at d = 0.1 (under distance
// weights, and on NW under travel time, where it cleared 2x by 3% on one
// seed), so Table 5's "High density" verdict is asserted on E alone; INE
// against ROAD at d = 1; ROAD against Gtree on E at k = 1 and at d = 0.01;
// and two cells of (e): IER-Gt at d = 0.1 in fig11a (2.2x) and on DE in
// fig17c, a 109-vertex network where every IER answers in a third of a
// microsecond (IER-PHL read from 0.97x to 4.4x of IER-Gt there).
//
// Each cell is the fastest of three runs, so a burst of contention from
// packages tested in parallel cannot flip a pair. The harness caches engines
// per network, so the three seeds share one set of index builds. SILC is
// built on NW only (2.2k vertices here): on E (8.8k) its build alone took
// 4.7 s, and DisBrw takes part in no asserted pair but as one of the
// methods IER-PHL beats.
func TestPaperOrdering(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows methods unevenly; CI's bench job runs this test without it")
	}
	for _, seed := range []int64{42, 1, 2} {
		cells := fastest(t, exp.Config{Queries: 20, Scale: 0.1, Seed: seed, MaxDisBrwVertices: 5000}, 3,
			"fig4", "fig10", "fig11", "fig17", "fig24")
		cell := func(tab, row, col string) float64 {
			t.Helper()
			us, ok := cells[tab][row][col]
			if !ok {
				t.Fatalf("seed %d %s %s: no cell for %s", seed, tab, col, row)
			}
			return us
		}
		faster := func(tab, col, win, lose string) {
			t.Helper()
			if w, l := cell(tab, win, col), cell(tab, lose, col); w*margin >= l {
				t.Errorf("seed %d %s %s: %s %.2f µs is not %dx faster than %s %.2f µs", seed, tab, col, win, w, margin, lose, l)
			}
		}
		fastestIn := func(tab string, cols ...string) {
			t.Helper()
			for _, col := range cols {
				for row := range cells[tab] {
					if row != "IER-PHL" {
						faster(tab, col, "IER-PHL", row)
					}
				}
			}
		}
		ks := []string{"k=1", "k=5", "k=10", "k=25", "k=50"}
		for _, tab := range []string{"fig10a", "fig10b", "fig17a", "fig24a"} {
			fastestIn(tab, ks...) // (a)
		}
		for _, tab := range []string{"fig11a", "fig11b", "fig17b", "fig24b"} {
			fastestIn(tab, "d=0.0001", "d=0.001", "d=0.01") // (b)
			faster(tab, "d=1", "INE", "IER-PHL")            // (c)
			faster(tab, "d=0.0001", "Gtree", "ROAD")        // (d)
			faster(tab, "d=0.001", "Gtree", "ROAD")
		}
		faster("fig11a", "d=1", "INE", "Gtree")
		faster("fig11b", "d=1", "INE", "Gtree")
		faster("fig17b", "d=0.1", "INE", "IER-PHL")
		for _, col := range ks {
			faster("fig10a", col, "Gtree", "ROAD")
			faster("fig4a", col, "IER-PHL", "IER-TNR") // (f)
		}
		for _, col := range []string{"d=0.0001", "d=0.001", "d=0.01", "d=0.1", "d=1"} {
			faster("fig4b", col, "IER-PHL", "IER-TNR")
		}

		// (e): the fastest of the serving set in the cell, or in the cell
		// of the figure that measures the same workload.
		sameWorkload := map[string]string{"fig4a": "fig10a", "fig4b": "fig11a"}
		for tab, rows := range cells {
			for _, harnessOnly := range []string{"IER-Dijk", "IER-Gt"} {
				for col, us := range rows[harnessOnly] {
					if harnessOnly == "IER-Gt" && (tab == "fig11a" && col == "d=0.1" || tab == "fig17c" && strings.HasPrefix(col, "DE(")) {
						continue // near-ties, see above
					}
					best, by := math.Inf(1), ""
					for _, served := range []string{"INE", "IER-PHL", "Gtree"} {
						for _, in := range []string{tab, sameWorkload[tab]} {
							if w, ok := cells[in][served][col]; ok && w < best {
								best, by = w, served+" in "+in
							}
						}
					}
					if best*margin >= us {
						t.Errorf("seed %d %s %s: no serving method is %dx faster than %s %.2f µs (best: %s %.2f µs)",
							seed, tab, col, margin, harnessOnly, us, by, best)
					}
				}
			}
		}
	}
}

// fastest runs the experiments repeats times under cfg and returns each
// cell's smallest reading, by table id, row label and column header.
func fastest(t *testing.T, cfg exp.Config, repeats int, ids ...string) map[string]map[string]map[string]float64 {
	t.Helper()
	cells := map[string]map[string]map[string]float64{}
	for range repeats {
		for _, id := range ids {
			tables, err := exp.Run(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, tab := range tables {
				if cells[tab.ID] == nil {
					cells[tab.ID] = map[string]map[string]float64{}
				}
				for _, row := range tab.Rows {
					byCol := cells[tab.ID][row[0]]
					if byCol == nil {
						byCol = map[string]float64{}
						cells[tab.ID][row[0]] = byCol
					}
					for c, cell := range row[1:] {
						us, err := strconv.ParseFloat(cell, 64)
						if err != nil {
							t.Fatalf("%s/%s %s: %v", tab.ID, row[0], tab.Header[c+1], err)
						}
						if old, ok := byCol[tab.Header[c+1]]; !ok || us < old {
							byCol[tab.Header[c+1]] = us
						}
					}
				}
			}
		}
	}
	return cells
}
