package exp

import (
	"rnknn/internal/core"
	"rnknn/internal/graph"
)

func init() {
	register("fig17", "travel-time query performance on "+Large+" (k, density, |V|, min obj dist)", func(h *Harness) []*Table {
		kinds := h.TimeMethods()
		return []*Table{
			h.compare("fig17a", "travel time: varying k on "+Large, Large, graph.TravelTime, kinds, kCols(h.UniformObjects(Large, DefaultDensity))),
			h.compare("fig17b", "travel time: varying density on "+Large, Large, graph.TravelTime, kinds, h.densityCols(Large)),
			h.sizeSweep("fig17c", "travel time: varying |V|", graph.TravelTime, kinds, DefaultDensity),
			h.minDist("fig17d", Large, graph.TravelTime, kinds, 8),
		}
	})

	register("fig23", "IER oracle variants on travel time ("+Medium+")", func(h *Harness) []*Table {
		kinds := served(core.IERDijk, core.IERGt, core.IERPHL, core.IERTNR, core.IERCH)
		return []*Table{
			h.compare("fig23a", "travel time IER variants: varying k", Medium, graph.TravelTime, kinds, kCols(h.UniformObjects(Medium, DefaultDensity))),
			h.compare("fig23b", "travel time IER variants: varying density", Medium, graph.TravelTime, kinds, h.densityCols(Medium)),
			h.sizeSweep("fig23c", "travel time IER variants: varying |V|", graph.TravelTime, kinds, DefaultDensity),
		}
	})

	register("fig24", "travel-time query performance on "+Medium+" (k, density, min dist, clusters)", func(h *Harness) []*Table {
		kinds := h.TimeMethods()
		return []*Table{
			h.compare("fig24a", "travel time: varying k on "+Medium, Medium, graph.TravelTime, kinds, kCols(h.UniformObjects(Medium, DefaultDensity))),
			h.compare("fig24b", "travel time: varying density on "+Medium, Medium, graph.TravelTime, kinds, h.densityCols(Medium)),
			h.minDist("fig24c", Medium, graph.TravelTime, kinds, 6),
			h.compare("fig24d", "travel time: varying number of clusters (k=10)", Medium, graph.TravelTime, kinds,
				h.clusterCols(h.Network(Medium).View(graph.TravelTime))),
		}
	})

	register("fig25", "travel-time real-world POIs (sets; varying k)", func(h *Harness) []*Table {
		return []*Table{
			h.pois("fig25a", Medium, graph.TravelTime, h.TimeMethods()),
			h.pois("fig25b", Large, graph.TravelTime, h.TimeMethods()),
			h.poiK("fig27a", Medium, graph.TravelTime, "Hospital"),
			h.poiK("fig27b", Medium, graph.TravelTime, "FastFood"),
		}
	})
}
