package exp

import (
	"fmt"
	"runtime"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/gtree"
	"rnknn/internal/ier"
	"rnknn/internal/knn"
	"rnknn/internal/road"
)

// kSweep measures each method across k values at fixed density.
func (h *Harness) kSweep(id, title, net string, wk graph.WeightKind, ms []method, density float64, ks []int) *Table {
	e := h.Engine(net, wk)
	objs := h.UniformObjects(net, density)
	queries := h.Queries(net)
	t := &Table{ID: id, Title: title, Header: []string{"method"}}
	for _, k := range ks {
		t.Header = append(t.Header, fmt.Sprintf("k=%d", k))
	}
	for _, me := range ms {
		row := []string{me.name}
		m := h.mustMethod(e, me, objs)
		for _, k := range ks {
			row = append(row, fmtUS(Measure(m, queries, k)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// densitySweep measures each method across densities at fixed k.
func (h *Harness) densitySweep(id, title, net string, wk graph.WeightKind, ms []method, k int, densities []float64) *Table {
	e := h.Engine(net, wk)
	queries := h.Queries(net)
	t := &Table{ID: id, Title: title, Header: []string{"method"}}
	for _, d := range densities {
		t.Header = append(t.Header, fmt.Sprintf("d=%g", d))
	}
	t.Rows = labelRows(ms)
	for _, d := range densities {
		objs := h.UniformObjects(net, d)
		for i, me := range ms {
			m := h.mustMethod(e, me, objs)
			t.Rows[i] = append(t.Rows[i], fmtUS(Measure(m, queries, k)))
		}
	}
	return t
}

// labelRows starts one table row per method, labelled with its name.
func labelRows(ms []method) [][]string {
	rows := make([][]string, len(ms))
	for i, m := range ms {
		rows[i] = []string{m.name}
	}
	return rows
}

// sizeSweep measures each method across the ladder at the defaults.
func (h *Harness) sizeSweep(id, title string, wk graph.WeightKind, nets []string, ms func(net string) []method) *Table {
	t := &Table{ID: id, Title: title, Header: []string{"method"}}
	for _, net := range nets {
		t.Header = append(t.Header, fmt.Sprintf("%s(%d)", net, h.Network(net).NumVertices()))
	}
	rows := map[string][]string{}
	var order []string
	for ni, net := range nets {
		e := h.Engine(net, wk)
		objs := h.UniformObjects(net, DefaultDensity)
		queries := h.Queries(net)
		for _, me := range ms(net) {
			name := me.name
			if _, ok := rows[name]; !ok {
				rows[name] = []string{name}
				order = append(order, name)
			}
			for len(rows[name]) < 1+ni {
				rows[name] = append(rows[name], "-")
			}
			m := h.mustMethod(e, me, objs)
			rows[name] = append(rows[name], fmtUS(Measure(m, queries, DefaultK)))
		}
	}
	for _, name := range order {
		r := rows[name]
		for len(r) < len(t.Header) {
			r = append(r, "-")
		}
		t.Rows = append(t.Rows, r)
	}
	return t
}

// ladder returns the harness ladder for build/size/scalability experiments.
func (h *Harness) ladder() []string { return []string{"DE", "VT", "ME", "CO", "NW", "CA"} }

func init() {
	register("fig4", "IER oracle variants (distance weights, "+Medium+", uniform objects)", func(h *Harness) []*Table {
		kinds := served(core.IERDijk, core.IERGt, core.IERPHL, core.IERTNR, core.IERCH)
		return []*Table{
			h.kSweep("fig4a", "IER variants: varying k (d=0.001)", Medium, graph.TravelDistance, kinds, DefaultDensity, Ks),
			h.densitySweep("fig4b", "IER variants: varying density (k=10)", Medium, graph.TravelDistance, kinds, DefaultK, Densities),
		}
	})

	register("fig6", "G-tree distance-matrix layouts under IER-Gt + Table 3 substitute ("+Medium+")", func(h *Harness) []*Table {
		e := h.Engine(Medium, graph.TravelDistance)
		idx := e.GtreeIndex()
		queries := h.Queries(Medium)
		objs := h.UniformObjects(Medium, DefaultDensity)

		ta := &Table{ID: "fig6a", Title: "IER-Gt matrix layouts: varying k (d=0.001)", Header: []string{"layout"}}
		for _, k := range Ks {
			ta.Header = append(ta.Header, fmt.Sprintf("k=%d", k))
		}
		tb := &Table{ID: "fig6b", Title: "IER-Gt matrix layouts: varying density (k=10)", Header: []string{"layout"}}
		for _, d := range Densities {
			tb.Header = append(tb.Header, fmt.Sprintf("d=%g", d))
		}
		// Table 3 substitute: Go cannot read CPU cache counters in-process;
		// report time and allocation counters for the same workload.
		tc := &Table{ID: "table3", Title: "layout profile substitute (time and allocs; Go reads no cache counters)",
			Header: []string{"layout", "us/query", "allocs/query", "alloc B/query"}}
		for _, l := range []matrixLayout{builtinMapLayout, openAddrLayout, arrayLayout} {
			src := newLayoutSource(idx, newCells(idx, l))
			m := ier.New("IER-Gt", e.G, objs, src)
			row := []string{l.String()}
			for _, k := range Ks {
				row = append(row, fmtUS(Measure(m, queries, k)))
			}
			ta.Rows = append(ta.Rows, row)

			row = []string{l.String()}
			for _, d := range Densities {
				row = append(row, fmtUS(Measure(ier.New("IER-Gt", e.G, h.UniformObjects(Medium, d), src), queries, DefaultK)))
			}
			tb.Rows = append(tb.Rows, row)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			us := Measure(m, queries, DefaultK)
			runtime.ReadMemStats(&after)
			n := float64(len(queries) + 2)
			tc.Rows = append(tc.Rows, []string{
				l.String(), fmtUS(us),
				fmt.Sprintf("%.0f", float64(after.Mallocs-before.Mallocs)/n),
				fmt.Sprintf("%.0f", float64(after.TotalAlloc-before.TotalAlloc)/n),
			})
		}
		return []*Table{ta, tb, tc}
	})

	register("fig7", "INE implementation ladder ("+Medium+")", func(h *Harness) []*Table {
		g := h.Network(Medium)
		queries := h.Queries(Medium)
		variants := []ineVariant{ineFirstCut, inePQueue, ineSettled, ineCSRGraph}

		ta := &Table{ID: "fig7a", Title: "INE ladder: varying k (d=0.001)", Header: []string{"variant"}}
		for _, k := range Ks {
			ta.Header = append(ta.Header, fmt.Sprintf("k=%d", k))
		}
		objs := h.UniformObjects(Medium, DefaultDensity)
		for _, v := range variants {
			m := newINEAblation(g, objs, v)
			row := []string{v.String()}
			for _, k := range Ks {
				row = append(row, fmtUS(Measure(m, queries, k)))
			}
			ta.Rows = append(ta.Rows, row)
		}

		tb := &Table{ID: "fig7b", Title: "INE ladder: varying density (k=10)", Header: []string{"variant"}}
		for _, d := range Densities {
			tb.Header = append(tb.Header, fmt.Sprintf("d=%g", d))
		}
		for _, v := range variants {
			row := []string{v.String()}
			for _, d := range Densities {
				m := newINEAblation(g, h.UniformObjects(Medium, d), v)
				row = append(row, fmtUS(Measure(m, queries, DefaultK)))
			}
			tb.Rows = append(tb.Rows, row)
		}
		return []*Table{ta, tb}
	})

	register("fig9", "query time and method statistics vs network size (d=0.001, k=10)", func(h *Harness) []*Table {
		ta := h.sizeSweep("fig9a", "query time vs |V| (distance weights)", graph.TravelDistance, h.ladder(), h.DistMethods)

		tb := &Table{ID: "fig9b", Title: "G-tree path cost, IER-Gt path cost, ROAD vertices bypassed",
			Header: []string{"network", "|V|", "Gtree path cost", "IER-Gt path cost", "ROAD bypassed"}}
		for _, net := range h.ladder() {
			e := h.Engine(net, graph.TravelDistance)
			objs := h.UniformObjects(net, DefaultDensity)
			queries := h.Queries(net)

			gm := gtree.NewKNN(e.GtreeIndex(), e.GtreeIndex().NewOccurrenceList(objs))
			gtCost := 0
			for _, q := range queries {
				gm.KNN(q, DefaultK)
				gtCost += gm.PathCost
			}

			ig := &pathCounter{Factory: gtree.Factory{Idx: e.GtreeIndex()}}
			ierM := ier.New("IER-Gt", e.G, objs, ig)
			for _, q := range queries {
				ierM.KNN(q, DefaultK)
			}

			rm := road.NewKNN(e.ROADIndex(), e.ROADIndex().NewAssociationDirectory(objs))
			byp := 0
			for _, q := range queries {
				rm.KNN(q, DefaultK)
				byp += rm.VerticesBypassed
			}

			n := len(queries)
			tb.Rows = append(tb.Rows, []string{
				net, fmt.Sprint(e.G.NumVertices()),
				fmt.Sprint(gtCost / n), fmt.Sprint(ig.Total() / n), fmt.Sprint(byp / n),
			})
		}
		return []*Table{ta, tb}
	})

	register("fig10", "varying k (d=0.001, uniform objects)", func(h *Harness) []*Table {
		return []*Table{
			h.kSweep("fig10a", "varying k on "+Medium, Medium, graph.TravelDistance, h.DistMethods(Medium), DefaultDensity, Ks),
			h.kSweep("fig10b", "varying k on "+Large, Large, graph.TravelDistance, h.DistMethods(Large), DefaultDensity, Ks),
		}
	})

	register("fig11", "varying density (k=10, uniform objects)", func(h *Harness) []*Table {
		return []*Table{
			h.densitySweep("fig11a", "varying density on "+Medium, Medium, graph.TravelDistance, h.DistMethods(Medium), DefaultK, Densities),
			h.densitySweep("fig11b", "varying density on "+Large, Large, graph.TravelDistance, h.DistMethods(Large), DefaultK, Densities),
		}
	})

	register("fig12", "clustered objects ("+Medium+")", func(h *Harness) []*Table {
		g := h.Network(Medium)
		e := h.Engine(Medium, graph.TravelDistance)
		queries := h.Queries(Medium)
		ms := h.DistMethods(Medium)

		counts := []int{1, 10, 100, 1000}
		ta := &Table{ID: "fig12a", Title: "varying number of clusters (cluster size <= 5, k=10)", Header: []string{"method"}}
		for _, c := range counts {
			ta.Header = append(ta.Header, fmt.Sprintf("|C|=%d", c))
		}
		ta.Rows = labelRows(ms)
		for _, c := range counts {
			objs := knn.NewObjectSet(g, gen.Clustered(g, c, 5, h.cfg.Seed+int64(c)))
			for i, me := range ms {
				m := h.mustMethod(e, me, objs)
				ta.Rows[i] = append(ta.Rows[i], fmtUS(Measure(m, queries, DefaultK)))
			}
		}

		// Varying k at |C| = 0.001*|V| clusters.
		nc := g.NumVertices() / 1000
		if nc < 1 {
			nc = 1
		}
		objs := knn.NewObjectSet(g, gen.Clustered(g, nc, 5, h.cfg.Seed+7))
		tb := &Table{ID: "fig12b", Title: fmt.Sprintf("varying k (|C|=%d clusters)", nc), Header: []string{"method"}}
		for _, k := range Ks {
			tb.Header = append(tb.Header, fmt.Sprintf("k=%d", k))
		}
		for _, me := range ms {
			m := h.mustMethod(e, me, objs)
			row := []string{me.name}
			for _, k := range Ks {
				row = append(row, fmtUS(Measure(m, queries, k)))
			}
			tb.Rows = append(tb.Rows, row)
		}
		return []*Table{ta, tb}
	})

	register("fig13", "real-world POI categories (k=10)", func(h *Harness) []*Table {
		return []*Table{
			h.poiTable("fig13a", Medium, graph.TravelDistance, h.DistMethods(Medium)),
			h.poiTable("fig13b", Large, graph.TravelDistance, h.DistMethods(Large)),
		}
	})

	register("fig14", "minimum object distance sets (d=0.001, k=10, distance weights)", func(h *Harness) []*Table {
		return []*Table{
			h.minDistTable("fig14a", Medium, graph.TravelDistance, h.DistMethods(Medium), 6),
			h.minDistTable("fig14b", Large, graph.TravelDistance, h.DistMethods(Large), 8),
		}
	})

	register("fig15", "varying k for real POIs ("+Medium+", distance weights)", func(h *Harness) []*Table {
		return []*Table{
			h.poiKTable("fig15a", Medium, graph.TravelDistance, "Hospital"),
			h.poiKTable("fig15b", Medium, graph.TravelDistance, "FastFood"),
		}
	})

	register("fig16", "original settings d=0.01 (CO-scale network)", func(h *Harness) []*Table {
		return []*Table{
			h.kSweep("fig16a", "varying k on CO (d=0.01)", "CO", graph.TravelDistance, h.DistMethods("CO"), 0.01, Ks),
			h.sizeSweepAtDensity("fig16b", "varying |V| (d=0.01, k=10)", graph.TravelDistance, 0.01),
		}
	})

	register("fig19", "DisBrw Object Hierarchy vs DB-ENN (ME-scale network)", func(h *Harness) []*Table {
		net := "ME"
		e := h.Engine(net, graph.TravelDistance)
		queries := h.Queries(net)
		build := func(objs *knn.ObjectSet) []knn.Method {
			return []knn.Method{
				h.mustMethod(e, disBrwOH, objs),
				h.mustMethod(e, disBrw, objs),
			}
		}
		ta := &Table{ID: "fig19a", Title: "varying k (d=0.001)", Header: []string{"variant"}}
		for _, k := range Ks {
			ta.Header = append(ta.Header, fmt.Sprintf("k=%d", k))
		}
		for _, m := range build(h.UniformObjects(net, DefaultDensity)) {
			row := []string{m.Name()}
			for _, k := range Ks {
				row = append(row, fmtUS(Measure(m, queries, k)))
			}
			ta.Rows = append(ta.Rows, row)
		}
		tb := &Table{ID: "fig19b", Title: "varying density (k=10)", Header: []string{"variant"}}
		for _, d := range Densities {
			tb.Header = append(tb.Header, fmt.Sprintf("d=%g", d))
		}
		rows := [][]string{{"DisBrw-OH"}, {"DisBrw"}}
		for _, d := range Densities {
			for i, m := range build(h.UniformObjects(net, d)) {
				rows[i] = append(rows[i], fmtUS(Measure(m, queries, DefaultK)))
			}
		}
		tb.Rows = rows
		return []*Table{ta, tb}
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
			e := h.EngineFor(tc.g)
			idx := silcIndex(e).x
			objs := knn.NewObjectSet(tc.g, gen.Uniform(tc.g, DefaultDensity, h.cfg.Seed))
			queries := gen.QueryVertices(tc.g, h.cfg.Queries, h.cfg.Seed+3)
			m := h.mustMethod(e, disBrw, objs)
			t := &Table{
				ID: tc.id,
				Title: fmt.Sprintf("chain optimisation on %s (%.0f%% deg<=2): varying k",
					tc.g.Name, tc.g.ChainFraction()*100),
				Header: []string{"variant"},
			}
			for _, k := range Ks {
				t.Header = append(t.Header, fmt.Sprintf("k=%d", k))
			}
			for _, on := range []bool{false, true} {
				idx.ChainOptimization = on
				name := "DisBrw"
				if on {
					name = "OptDisBrw"
				}
				row := []string{name}
				for _, k := range Ks {
					row = append(row, fmtUS(Measure(m, queries, k)))
				}
				t.Rows = append(t.Rows, row)
			}
			idx.ChainOptimization = true
			out = append(out, t)
		}
		return out
	})

	register("fig22", "improved G-tree leaf search (varying density, k=1 and k=10)", func(h *Harness) []*Table {
		var out []*Table
		for _, net := range []string{Medium, Large} {
			e := h.Engine(net, graph.TravelDistance)
			idx := e.GtreeIndex()
			queries := h.Queries(net)
			t := &Table{ID: "fig22-" + net, Title: "leaf search before/after on " + net, Header: []string{"variant"}}
			for _, d := range Densities {
				t.Header = append(t.Header, fmt.Sprintf("d=%g", d))
			}
			for _, k := range []int{1, 10} {
				for _, improved := range []bool{false, true} {
					label := fmt.Sprintf("k=%d ", k)
					if improved {
						label += "(Aft)"
					} else {
						label += "(Bef)"
					}
					row := []string{label}
					for _, d := range Densities {
						m := gtree.NewKNN(idx, idx.NewOccurrenceList(h.UniformObjects(net, d)))
						m.ImprovedLeaf = improved
						row = append(row, fmtUS(Measure(m, queries, k)))
					}
					t.Rows = append(t.Rows, row)
				}
			}
			out = append(out, t)
		}
		return out
	})

	register("table5", "ranking of algorithms under different criteria", func(h *Harness) []*Table {
		ms := append(served(core.INE, core.Gtree, core.ROAD, core.IERPHL), disBrw)
		t := &Table{ID: "table5", Title: "dense ranks, 1 = best (DisBrw only where SILC fits)",
			Header: []string{"criteria"}}
		for _, m := range ms {
			t.Header = append(t.Header, m.name)
		}
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
		for _, c := range criteria {
			e := h.Engine(c.net, graph.TravelDistance)
			objs := h.UniformObjects(c.net, c.d)
			queries := h.Queries(c.net)
			var vals []float64
			var present []int
			for i, me := range ms {
				if me.browse != nil && !h.DisBrwAllowed(c.net) {
					continue
				}
				m := h.mustMethod(e, me, objs)
				vals = append(vals, Measure(m, queries, c.k))
				present = append(present, i)
			}
			ranks := rankRow(vals)
			row := make([]string, len(ms)+1)
			row[0] = c.name
			for i := range row[1:] {
				row[i+1] = "N/A"
			}
			for j, i := range present {
				row[i+1] = fmt.Sprint(ranks[j])
			}
			t.Rows = append(t.Rows, row)
		}
		return []*Table{t}
	})
}

// poiTable measures every method over the eight POI categories.
func (h *Harness) poiTable(id, net string, wk graph.WeightKind, ms []method) *Table {
	g := h.Network(net).View(wk)
	e := h.Engine(net, wk)
	queries := h.Queries(net)
	cats := gen.POICategories(g, h.cfg.Seed+5)
	t := &Table{ID: id, Title: "POI categories on " + net + " (" + wk.String() + ")", Header: []string{"method"}}
	for _, c := range cats {
		t.Header = append(t.Header, c.Name)
	}
	for _, me := range ms {
		row := []string{me.name}
		for _, c := range cats {
			objs := knn.NewObjectSet(g, c.Vertices)
			m := h.mustMethod(e, me, objs)
			row = append(row, fmtUS(Measure(m, queries, DefaultK)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// poiKTable measures every method over k for one POI category.
func (h *Harness) poiKTable(id, net string, wk graph.WeightKind, category string) *Table {
	g := h.Network(net).View(wk)
	e := h.Engine(net, wk)
	queries := h.Queries(net)
	var objs *knn.ObjectSet
	for _, c := range gen.POICategories(g, h.cfg.Seed+5) {
		if c.Name == category {
			objs = knn.NewObjectSet(g, c.Vertices)
		}
	}
	ms := h.DistMethods(net)
	if wk == graph.TravelTime {
		ms = h.TimeMethods()
	}
	t := &Table{ID: id, Title: category + " on " + net + " (" + wk.String() + ")", Header: []string{"method"}}
	for _, k := range Ks {
		t.Header = append(t.Header, fmt.Sprintf("k=%d", k))
	}
	for _, me := range ms {
		m := h.mustMethod(e, me, objs)
		row := []string{me.name}
		for _, k := range Ks {
			row = append(row, fmtUS(Measure(m, queries, k)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// minDistTable measures every method over the R_i minimum-distance sets.
func (h *Harness) minDistTable(id, net string, wk graph.WeightKind, ms []method, m int) *Table {
	g := h.Network(net).View(wk)
	e := h.Engine(net, wk)
	res := gen.MinObjDist(g, DefaultDensity, m, h.cfg.Queries, h.cfg.Seed+11)
	t := &Table{ID: id, Title: fmt.Sprintf("min object distance on %s (%s, m=%d)", net, wk, m), Header: []string{"method"}}
	for i := 1; i <= m; i++ {
		t.Header = append(t.Header, fmt.Sprintf("R%d", i))
	}
	for _, me := range ms {
		row := []string{me.name}
		for _, set := range res.Sets {
			objs := knn.NewObjectSet(g, set)
			meth := h.mustMethod(e, me, objs)
			row = append(row, fmtUS(Measure(meth, res.Queries, DefaultK)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// sizeSweepAtDensity is sizeSweep at a non-default density (Figure 16b).
func (h *Harness) sizeSweepAtDensity(id, title string, wk graph.WeightKind, density float64) *Table {
	t := &Table{ID: id, Title: title, Header: []string{"method"}}
	nets := h.ladder()
	for _, net := range nets {
		t.Header = append(t.Header, fmt.Sprintf("%s(%d)", net, h.Network(net).NumVertices()))
	}
	for _, me := range h.DistMethods(nets[0]) {
		row := []string{me.name}
		for _, net := range nets {
			if me.browse != nil && !h.DisBrwAllowed(net) {
				row = append(row, "-")
				continue
			}
			e := h.Engine(net, wk)
			objs := h.UniformObjects(net, density)
			m := h.mustMethod(e, me, objs)
			row = append(row, fmtUS(Measure(m, h.Queries(net), DefaultK)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
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
