package exp

import (
	"fmt"
	"runtime"
	"slices"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/gtree"
	"rnknn/internal/ier"
	"rnknn/internal/knn"
	"rnknn/internal/road"
)

// netLabels labels each ladder network with its |V|.
func (h *Harness) netLabels(nets []string) []string {
	out := make([]string, len(nets))
	for i, net := range nets {
		out[i] = fmt.Sprintf("%s(%d)", net, h.Network(net).NumVertices())
	}
	return out
}

// sizeSweep measures each method across the ladder at density and the
// default k; "-" marks Distance Browsing where SILC is not built.
func (h *Harness) sizeSweep(id, title string, wk graph.WeightKind, ms []method, density float64) *Table {
	nets := h.ladder()
	type workload struct {
		objs    *knn.ObjectSet
		queries []int32
	}
	at := memo(func(c int) workload { return workload{h.UniformObjects(nets[c], density), h.Queries(nets[c])} })
	return grid(id, title, "method", labels("%v", ms), h.netLabels(nets), func(r, c int) string {
		if ms[r].browse != nil && !h.DisBrwAllowed(nets[c]) {
			return "-"
		}
		return fmtUS(Measure(h.mustMethod(h.Engine(nets[c], wk), ms[r], at(c).objs), at(c).queries, DefaultK))
	})
}

// ladder returns the harness ladder for build/size/scalability experiments.
func (h *Harness) ladder() []string { return []string{"DE", "VT", "ME", "CO", "NW", "CA"} }

// pois measures ms over net's POI categories (Figures 13 and 25).
func (h *Harness) pois(id, net string, wk graph.WeightKind, ms []method) *Table {
	return h.compare(id, "POI categories on "+net+" ("+wk.String()+")", net, wk, ms, h.poiCols(net, wk))
}

// poiCols sweeps net's POI categories (wk view) at the default k.
func (h *Harness) poiCols(net string, wk graph.WeightKind) []col {
	g := h.Network(net).View(wk)
	var out []col
	for _, c := range gen.POICategories(g, h.cfg.Seed+5) {
		out = append(out, col{c.Name, DefaultK, knn.NewObjectSet(g, c.Vertices)})
	}
	return out
}

// poiK sweeps k for one POI category of net (Figures 15 and 27).
func (h *Harness) poiK(id, net string, wk graph.WeightKind, category string) *Table {
	ms := h.DistMethods(net)
	if wk == graph.TravelTime {
		ms = h.TimeMethods()
	}
	cols := h.poiCols(net, wk)
	objs := cols[slices.IndexFunc(cols, func(c col) bool { return c.label == category })].objs
	return h.compare(id, category+" on "+net+" ("+wk.String()+")", net, wk, ms, kCols(objs))
}

// minDist measures ms over the m minimum-object-distance sets R_i of net.
func (h *Harness) minDist(id, net string, wk graph.WeightKind, ms []method, m int) *Table {
	g := h.Network(net).View(wk)
	res := gen.MinObjDist(g, DefaultDensity, m, h.cfg.Queries, h.cfg.Seed+11)
	cols := make([]col, len(res.Sets))
	for i, set := range res.Sets {
		cols[i] = col{fmt.Sprintf("R%d", i+1), DefaultK, knn.NewObjectSet(g, set)}
	}
	return measure(id, fmt.Sprintf("min object distance on %s (%s, m=%d)", net, wk, m), "method",
		labels("%v", ms), cols, res.Queries, h.sessions(h.Engine(net, wk), ms))
}

func init() {
	register("fig4", "IER oracle variants (distance weights, "+Medium+", uniform objects)", func(h *Harness) []*Table {
		return []*Table{
			h.compare("fig4a", "IER variants: varying k (d=0.001)", Medium, graph.TravelDistance, ierVariants, kCols(h.UniformObjects(Medium, DefaultDensity))),
			h.compare("fig4b", "IER variants: varying density (k=10)", Medium, graph.TravelDistance, ierVariants, h.densityCols(Medium)),
		}
	})

	register("fig6", "G-tree distance-matrix layouts under IER-Gt + Table 3 substitute ("+Medium+")", func(h *Harness) []*Table {
		e := h.Engine(Medium, graph.TravelDistance)
		idx := e.GtreeIndex()
		queries := h.Queries(Medium)
		objs := h.UniformObjects(Medium, DefaultDensity)
		layouts := []matrixLayout{builtinMapLayout, openAddrLayout, arrayLayout}
		cols := [][]col{kCols(objs), h.densityCols(Medium)}
		// One layout at a time fills its row of Figure 6a, 6b and Table 3,
		// so each matrix copy is dropped before the next is built. Table 3
		// profiles Figure 6a's warm session; Go cannot read CPU cache
		// counters in-process, so it reports time and allocation counters.
		rows := memo(func(r int) [][]string {
			src := newLayoutSource(idx, newCells(idx, layouts[r]))
			warm := ier.New("IER-Gt", e.G, objs, src)
			mgtree := func(on *knn.ObjectSet) knn.Method {
				if on == objs {
					return warm
				}
				return ier.New("IER-Gt", e.G, on, src)
			}
			a, b := measureRow(cols[0], queries, mgtree), measureRow(cols[1], queries, mgtree)
			us := Measure(warm, queries, DefaultK)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, q := range queries {
				warm.KNN(q, DefaultK)
			}
			runtime.ReadMemStats(&after)
			n := float64(len(queries))
			return [][]string{a, b, {fmtUS(us),
				fmt.Sprintf("%.0f", float64(after.Mallocs-before.Mallocs)/n),
				fmt.Sprintf("%.0f", float64(after.TotalAlloc-before.TotalAlloc)/n)}}
		})
		cell := func(t int) func(r, c int) string { return func(r, c int) string { return rows(r)[t][c] } }
		names := labels("%v", layouts)
		return []*Table{
			grid("fig6a", "IER-Gt matrix layouts: varying k (d=0.001)", "layout", names, labels("%v", cols[0]), cell(0)),
			grid("fig6b", "IER-Gt matrix layouts: varying density (k=10)", "layout", names, labels("%v", cols[1]), cell(1)),
			grid("table3", "layout profile substitute (time and allocs; Go reads no cache counters)", "layout", names,
				[]string{"us/query", "allocs/query", "alloc B/query"}, cell(2)),
		}
	})

	register("fig7", "INE implementation ladder ("+Medium+")", func(h *Harness) []*Table {
		g := h.Network(Medium)
		queries := h.Queries(Medium)
		variants := []ineVariant{ineFirstCut, inePQueue, ineSettled, ineCSRGraph}
		rung := func(r int, objs *knn.ObjectSet) knn.Method { return newINEAblation(g, objs, variants[r]) }
		names := labels("%v", variants)
		return []*Table{
			measure("fig7a", "INE ladder: varying k (d=0.001)", "variant", names, kCols(h.UniformObjects(Medium, DefaultDensity)), queries, rung),
			measure("fig7b", "INE ladder: varying density (k=10)", "variant", names, h.densityCols(Medium), queries, rung),
		}
	})

	register("fig9", "query time and method statistics vs network size (d=0.001, k=10)", func(h *Harness) []*Table {
		nets := h.ladder()
		stats := func(r int) []string {
			e := h.Engine(nets[r], graph.TravelDistance)
			objs := h.UniformObjects(nets[r], DefaultDensity)
			queries := h.Queries(nets[r])

			gm := gtree.NewKNN(e.GtreeIndex(), e.GtreeIndex().NewOccurrenceList(objs))
			ig := &pathCounter{Factory: gtree.Factory{Idx: e.GtreeIndex()}}
			ierM := ier.New("IER-Gt", e.G, objs, ig)
			rm := road.NewKNN(e.ROADIndex(), e.ROADIndex().NewAssociationDirectory(objs))
			gtCost, byp := 0, 0
			for _, q := range queries {
				gm.KNN(q, DefaultK)
				gtCost += gm.PathCost
			}
			for _, q := range queries {
				ierM.KNN(q, DefaultK)
			}
			for _, q := range queries {
				rm.KNN(q, DefaultK)
				byp += rm.VerticesBypassed
			}
			n := len(queries)
			return []string{fmt.Sprint(e.G.NumVertices()), fmt.Sprint(gtCost / n), fmt.Sprint(ig.Total() / n), fmt.Sprint(byp / n)}
		}
		return []*Table{
			h.sizeSweep("fig9a", "query time vs |V| (distance weights)", graph.TravelDistance, h.DistMethods(nets[0]), DefaultDensity),
			grid("fig9b", "G-tree path cost, IER-Gt path cost, ROAD vertices bypassed", "network", nets,
				[]string{"|V|", "Gtree path cost", "IER-Gt path cost", "ROAD bypassed"}, byRow(stats)),
		}
	})

	register("fig10", "varying k (d=0.001, uniform objects)", func(h *Harness) []*Table {
		return []*Table{
			h.compare("fig10a", "varying k on "+Medium, Medium, graph.TravelDistance, h.DistMethods(Medium), kCols(h.UniformObjects(Medium, DefaultDensity))),
			h.compare("fig10b", "varying k on "+Large, Large, graph.TravelDistance, h.DistMethods(Large), kCols(h.UniformObjects(Large, DefaultDensity))),
		}
	})

	register("fig11", "varying density (k=10, uniform objects)", func(h *Harness) []*Table {
		return []*Table{
			h.compare("fig11a", "varying density on "+Medium, Medium, graph.TravelDistance, h.DistMethods(Medium), h.densityCols(Medium)),
			h.compare("fig11b", "varying density on "+Large, Large, graph.TravelDistance, h.DistMethods(Large), h.densityCols(Large)),
		}
	})

	register("fig12", "clustered objects ("+Medium+")", func(h *Harness) []*Table {
		g := h.Network(Medium)
		ms := h.DistMethods(Medium)
		// Varying k at |C| = 0.001*|V| clusters.
		nc := max(g.NumVertices()/1000, 1)
		objs := knn.NewObjectSet(g, gen.Clustered(g, nc, 5, h.cfg.Seed+7))
		return []*Table{
			h.compare("fig12a", "varying number of clusters (cluster size <= 5, k=10)", Medium, graph.TravelDistance, ms, h.clusterCols(g)),
			h.compare("fig12b", fmt.Sprintf("varying k (|C|=%d clusters)", nc), Medium, graph.TravelDistance, ms, kCols(objs)),
		}
	})

	register("fig13", "real-world POI categories (k=10)", func(h *Harness) []*Table {
		return []*Table{
			h.pois("fig13a", Medium, graph.TravelDistance, h.DistMethods(Medium)),
			h.pois("fig13b", Large, graph.TravelDistance, h.DistMethods(Large)),
		}
	})

	register("fig14", "minimum object distance sets (d=0.001, k=10, distance weights)", func(h *Harness) []*Table {
		return []*Table{
			h.minDist("fig14a", Medium, graph.TravelDistance, h.DistMethods(Medium), 6),
			h.minDist("fig14b", Large, graph.TravelDistance, h.DistMethods(Large), 8),
		}
	})

	register("fig15", "varying k for real POIs ("+Medium+", distance weights)", func(h *Harness) []*Table {
		return []*Table{
			h.poiK("fig15a", Medium, graph.TravelDistance, "Hospital"),
			h.poiK("fig15b", Medium, graph.TravelDistance, "FastFood"),
		}
	})

	register("fig16", "original settings d=0.01 (CO-scale network)", func(h *Harness) []*Table {
		return []*Table{
			h.compare("fig16a", "varying k on CO (d=0.01)", "CO", graph.TravelDistance, h.DistMethods("CO"), kCols(h.UniformObjects("CO", 0.01))),
			h.sizeSweep("fig16b", "varying |V| (d=0.01, k=10)", graph.TravelDistance, h.DistMethods(h.ladder()[0]), 0.01),
		}
	})

	register("fig19", "DisBrw Object Hierarchy vs DB-ENN (ME-scale network)", func(h *Harness) []*Table {
		net := "ME"
		variants := []method{disBrwOH, disBrw}
		build := h.sessions(h.Engine(net, graph.TravelDistance), variants)
		return []*Table{
			measure("fig19a", "varying k (d=0.001)", "variant", labels("%v", variants), kCols(h.UniformObjects(net, DefaultDensity)), h.Queries(net), build),
			measure("fig19b", "varying density (k=10)", "variant", labels("%v", variants), h.densityCols(net), h.Queries(net), build),
		}
	})

	register("fig20", "degree-2 chain optimisation (DB-ENN on HWY and ME networks)", func(h *Harness) []*Table {
		var out []*Table
		for _, tc := range []struct {
			id string
			g  *graph.Graph
		}{
			{"fig20", h.HighwayNetwork()},
			{"fig21", h.Network("ME")},
		} {
			g := tc.g
			e := h.EngineFor(g)
			idx := silcIndex(e).x
			m := h.mustMethod(e, disBrw, knn.NewObjectSet(g, gen.Uniform(g, DefaultDensity, h.cfg.Seed)))
			queries := gen.QueryVertices(g, h.cfg.Queries, h.cfg.Seed+3)
			out = append(out, grid(tc.id,
				fmt.Sprintf("chain optimisation on %s (%.0f%% deg<=2): varying k", g.Name, g.ChainFraction()*100),
				"variant", []string{"DisBrw", "OptDisBrw"}, labels("%v", kCols(nil)), func(r, c int) string {
					idx.ChainOptimization = r == 1
					return fmtUS(Measure(m, queries, Ks[c]))
				}))
			idx.ChainOptimization = true
		}
		return out
	})

	register("fig22", "improved G-tree leaf search (varying density, k=1 and k=10)", func(h *Harness) []*Table {
		var out []*Table
		for _, net := range []string{Medium, Large} {
			idx := h.Engine(net, graph.TravelDistance).GtreeIndex()
			queries := h.Queries(net)
			cols := h.densityCols(net)
			out = append(out, grid("fig22-"+net, "leaf search before/after on "+net, "variant",
				[]string{"k=1 (Bef)", "k=1 (Aft)", "k=10 (Bef)", "k=10 (Aft)"}, labels("%v", cols), func(r, c int) string {
					m := gtree.NewKNN(idx, idx.NewOccurrenceList(cols[c].objs))
					m.ImprovedLeaf = r%2 == 1
					return fmtUS(Measure(m, queries, []int{1, 10}[r/2]))
				}))
		}
		return out
	})

	register("table5", "ranking of algorithms under different criteria", func(h *Harness) []*Table {
		ms := append(served(core.INE, core.Gtree, core.ROAD, core.IERPHL), disBrw)
		criteria := []struct {
			name string
			net  string
			k    int
			d    float64
		}{
			{"Default", Medium, DefaultK, DefaultDensity},
			{"Small k", Medium, 1, DefaultDensity},
			{"Large k", Medium, 50, DefaultDensity},
			{"Low density", Medium, DefaultK, 0.0001},
			{"High density", Medium, DefaultK, 0.1},
			{"Small network", "ME", DefaultK, DefaultDensity},
			{"Large network", Large, DefaultK, DefaultDensity},
		}
		names := make([]string, len(criteria))
		for i, c := range criteria {
			names[i] = c.name
		}
		ranks := func(r int) []string {
			c := criteria[r]
			e := h.Engine(c.net, graph.TravelDistance)
			objs := h.UniformObjects(c.net, c.d)
			queries := h.Queries(c.net)
			var vals []float64
			var present []int
			row := make([]string, len(ms))
			for i, me := range ms {
				row[i] = "N/A"
				if me.browse != nil && !h.DisBrwAllowed(c.net) {
					continue
				}
				vals = append(vals, Measure(h.mustMethod(e, me, objs), queries, c.k))
				present = append(present, i)
			}
			for j, rank := range rankRow(vals) {
				row[present[j]] = fmt.Sprint(rank)
			}
			return row
		}
		return []*Table{grid("table5", "dense ranks, 1 = best (DisBrw only where SILC fits)", "criteria", names, labels("%v", ms), byRow(ranks))}
	})
}

// pathCounter is gtree.Factory summing the path cost (border-to-border
// additions) of every source it hands out: IER-Gt's column of Figure 9b.
type pathCounter struct {
	gtree.Factory
	last  *gtree.Source
	total int
}

// NewSource implements knn.SourceFactory.
func (f *pathCounter) NewSource(q int32) knn.SourceOracle {
	f.Total() // banks the last source's cost before the reuse resets it
	f.last = f.Factory.NewSource(q).(*gtree.Source)
	return f.last
}

// Total returns the path cost summed so far.
func (f *pathCounter) Total() int {
	if f.last != nil {
		f.total += f.last.PathCost
		f.last = nil
	}
	return f.total
}
