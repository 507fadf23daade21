package exp

import (
	"fmt"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

func init() {
	register("fig17", "travel-time query performance on "+Large+" (k, density, |V|, min obj dist)", func(h *Harness) []*Table {
		kinds := h.TimeMethods()
		out := []*Table{
			h.kSweep("fig17a", "travel time: varying k on "+Large, Large, graph.TravelTime, kinds, DefaultDensity, Ks),
			h.densitySweep("fig17b", "travel time: varying density on "+Large, Large, graph.TravelTime, kinds, DefaultK, Densities),
			h.sizeSweep("fig17c", "travel time: varying |V|", graph.TravelTime, h.ladder(),
				func(string) []method { return kinds }),
			h.minDistTable("fig17d", Large, graph.TravelTime, kinds, 8),
		}
		return out
	})

	register("fig23", "IER oracle variants on travel time ("+Medium+")", func(h *Harness) []*Table {
		kinds := served(core.IERDijk, core.IERGt, core.IERPHL, core.IERTNR, core.IERCH)
		return []*Table{
			h.kSweep("fig23a", "travel time IER variants: varying k", Medium, graph.TravelTime, kinds, DefaultDensity, Ks),
			h.densitySweep("fig23b", "travel time IER variants: varying density", Medium, graph.TravelTime, kinds, DefaultK, Densities),
			h.sizeSweep("fig23c", "travel time IER variants: varying |V|", graph.TravelTime, h.ladder(),
				func(string) []method { return kinds }),
		}
	})

	register("fig24", "travel-time query performance on "+Medium+" (k, density, min dist, clusters)", func(h *Harness) []*Table {
		kinds := h.TimeMethods()
		g := h.Network(Medium).View(graph.TravelTime)
		e := h.Engine(Medium, graph.TravelTime)
		queries := h.Queries(Medium)

		counts := []int{1, 10, 100, 1000}
		tc := &Table{ID: "fig24d", Title: "travel time: varying number of clusters (k=10)", Header: []string{"method"}}
		for _, c := range counts {
			tc.Header = append(tc.Header, fmt.Sprintf("|C|=%d", c))
		}
		tc.Rows = labelRows(kinds)
		for _, c := range counts {
			objs := knn.NewObjectSet(g, gen.Clustered(g, c, 5, h.cfg.Seed+int64(c)))
			for i, me := range kinds {
				m := h.mustMethod(e, me, objs)
				tc.Rows[i] = append(tc.Rows[i], fmtUS(Measure(m, queries, DefaultK)))
			}
		}

		return []*Table{
			h.kSweep("fig24a", "travel time: varying k on "+Medium, Medium, graph.TravelTime, kinds, DefaultDensity, Ks),
			h.densitySweep("fig24b", "travel time: varying density on "+Medium, Medium, graph.TravelTime, kinds, DefaultK, Densities),
			h.minDistTable("fig24c", Medium, graph.TravelTime, kinds, 6),
			tc,
		}
	})

	register("fig25", "travel-time real-world POIs (sets; varying k)", func(h *Harness) []*Table {
		return []*Table{
			h.poiTable("fig25a", Medium, graph.TravelTime, h.TimeMethods()),
			h.poiTable("fig25b", Large, graph.TravelTime, h.TimeMethods()),
			h.poiKTable("fig27a", Medium, graph.TravelTime, "Hospital"),
			h.poiKTable("fig27b", Medium, graph.TravelTime, "FastFood"),
		}
	})
}
