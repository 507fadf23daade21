package exp_test

import (
	"strconv"
	"testing"

	"rnknn/internal/exp"
)

// margin is how much faster the winner of an asserted pair must be. Every
// pair below was ordered by at least 2x on all three seeds (by 4.4x or more
// at the time of writing), so only a change that costs a method half its
// lead, or noise beyond anything the fastest of three runs has shown, fails.
const margin = 2

// TestPaperOrdering holds the harness to the orderings the paper's verdicts
// rest on: Table 5's Default, Small k, Large k and Low density rows, read
// off Figures 10 and 11. It runs fig10 and fig11 at Scale 0.1 on seeds 42,
// 1 and 2 and asserts only pairs that held with a 2x margin on all three:
//
//	(a) IER-PHL is fastest in every fig10 column, on NW and on E;
//	(b) IER-PHL is fastest in fig11 at d <= 0.01;
//	(c) INE beats IER-PHL and Gtree at d = 1;
//	(d) Gtree beats ROAD at d <= 0.001 in fig11, and in every fig10 column
//	    on NW.
//
// Left out as near-ties: INE against IER-PHL at d = 0.1 (so Table 5's
// "High density" verdict, INE first, is not asserted), INE against ROAD at
// d = 1, and ROAD against Gtree on E at k = 1 and at d = 0.01, where ROAD
// was faster on some seeds.
//
// Each cell is the fastest of three runs, so a burst of contention from
// packages tested in parallel cannot flip a pair. The harness caches engines
// per network, so the three seeds share one set of index builds. SILC is
// built on NW only (2.2k vertices here): on E (8.8k) its build alone took
// 4.7 of the test's 7.5 s, and DisBrw takes part in no asserted pair but as
// one of the methods IER-PHL beats.
func TestPaperOrdering(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows methods unevenly; CI's bench job runs this test without it")
	}
	for _, seed := range []int64{42, 1, 2} {
		cells := fastest(t, exp.Config{Queries: 20, Scale: 0.1, Seed: seed, MaxDisBrwVertices: 5000}, 3, "fig10", "fig11")
		faster := func(tab, col, win, lose string) {
			t.Helper()
			w, okW := cells[tab][win][col]
			l, okL := cells[tab][lose][col]
			if !okW || !okL {
				t.Fatalf("seed %d %s %s: no cell for %s or %s", seed, tab, col, win, lose)
			}
			if w*margin >= l {
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
		for _, tab := range []string{"fig10a", "fig10b"} {
			fastestIn(tab, ks...) // (a)
		}
		for _, tab := range []string{"fig11a", "fig11b"} {
			fastestIn(tab, "d=0.0001", "d=0.001", "d=0.01") // (b)
			faster(tab, "d=1", "INE", "IER-PHL")            // (c)
			faster(tab, "d=1", "INE", "Gtree")
			faster(tab, "d=0.0001", "Gtree", "ROAD") // (d)
			faster(tab, "d=0.001", "Gtree", "ROAD")
		}
		for _, col := range ks {
			faster("fig10a", col, "Gtree", "ROAD")
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
