package exp

import (
	"fmt"
	"time"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/geo"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/rtree"
)

// buildAll forces construction of every index the comparison uses on the
// network (respecting the SILC cap) and returns the engine.
func (h *Harness) buildAll(net string, wk graph.WeightKind, withSILC bool) *core.Engine {
	e := h.Engine(net, wk)
	e.GtreeIndex()
	e.ROADIndex()
	e.CHIndex()
	e.PHLIndex()
	e.TNRIndex()
	if withSILC && h.DisBrwAllowed(net) {
		e.SILCIndex()
	}
	return e
}

func init() {
	register("table1", "road network datasets (Table 1 analogue)", func(h *Harness) []*Table {
		t := &Table{ID: "table1", Title: "synthetic dataset ladder",
			Header: []string{"name", "|V|", "|E|", "deg<=2 frac", "connected"}}
		for _, spec := range gen.Ladder() {
			g := h.network(spec)
			t.Rows = append(t.Rows, []string{
				spec.Name,
				fmt.Sprint(g.NumVertices()),
				fmt.Sprint(g.NumEdges() / 2),
				fmt.Sprintf("%.2f", g.ChainFraction()),
				fmt.Sprint(g.Connected()),
			})
		}
		return []*Table{t}
	})

	register("table2", "real-world object sets (Table 2 analogue)", func(h *Harness) []*Table {
		var out []*Table
		for _, net := range []string{Medium, Large} {
			g := h.Network(net)
			t := &Table{ID: "table2-" + net, Title: "POI categories on " + net,
				Header: []string{"category", "size", "density", "clustered"}}
			for _, c := range gen.POICategories(g, h.cfg.Seed+5) {
				t.Rows = append(t.Rows, []string{
					c.Name,
					fmt.Sprint(len(c.Vertices)),
					fmt.Sprintf("%.5f", float64(len(c.Vertices))/float64(g.NumVertices())),
					fmt.Sprint(c.Clustered),
				})
			}
			out = append(out, t)
		}
		return out
	})

	register("fig8", "road network index size and construction time vs |V| (distance weights)", func(h *Harness) []*Table {
		return h.buildTables("fig8", graph.TravelDistance, true)
	})

	register("fig26", "road network index size and construction time vs |V| (travel time)", func(h *Harness) []*Table {
		return h.buildTables("fig26", graph.TravelTime, false)
	})

	register("fig18", "object index size and build time vs density ("+Large+")", func(h *Harness) []*Table {
		net := Large
		g := h.Network(net)
		e := h.Engine(net, graph.TravelDistance)
		gt := e.GtreeIndex()
		rd := e.ROADIndex()

		ts := &Table{ID: "fig18a", Title: "object index size vs density", Header: []string{"index"}}
		tt := &Table{ID: "fig18b", Title: "object index build time vs density", Header: []string{"index"}}
		for _, d := range Densities {
			ts.Header = append(ts.Header, fmt.Sprintf("d=%g", d))
			tt.Header = append(tt.Header, fmt.Sprintf("d=%g", d))
		}
		sizeRows := [][]string{{"INE (object set)"}, {"G-tree occ. list"}, {"ROAD assoc. dir"}, {"IER/DB R-tree"}}
		timeRows := [][]string{{"G-tree occ. list"}, {"ROAD assoc. dir"}, {"IER/DB R-tree"}}
		for _, d := range Densities {
			verts := gen.Uniform(g, d, h.cfg.Seed+int64(d*1e7))
			objs := knn.NewObjectSet(g, verts)
			sizeRows[0] = append(sizeRows[0], fmtBytes(objs.SizeBytes()))

			start := time.Now()
			ol := gt.NewOccurrenceList(objs)
			timeRows[0] = append(timeRows[0], fmtDur(time.Since(start)))
			sizeRows[1] = append(sizeRows[1], fmtBytes(ol.SizeBytes()))

			start = time.Now()
			ad := rd.NewAssociationDirectory(objs)
			timeRows[1] = append(timeRows[1], fmtDur(time.Since(start)))
			sizeRows[2] = append(sizeRows[2], fmtBytes(ad.SizeBytes()))

			start = time.Now()
			pts := make([]geo.Point, len(verts))
			for i, v := range verts {
				pts[i] = geo.Point{X: g.X[v], Y: g.Y[v]}
			}
			rt := rtree.New(verts, pts, 0)
			timeRows[2] = append(timeRows[2], fmtDur(time.Since(start)))
			sizeRows[3] = append(sizeRows[3], fmtBytes(rt.SizeBytes()))
		}
		ts.Rows = sizeRows
		tt.Rows = timeRows
		return []*Table{ts, tt}
	})
}

// buildTables produces the Figure 8 / Figure 26 pair: index sizes and
// construction times over the ladder.
func (h *Harness) buildTables(id string, wk graph.WeightKind, withSILC bool) []*Table {
	nets := h.ladder()
	names := []string{"Graph(INE)", "Gtree", "ROAD", "CH", "PHL", "TNR"}
	if withSILC {
		names = append(names, "DisBrw(SILC)")
	}
	ts := &Table{ID: id + "-size", Title: "index size (" + wk.String() + " weights)", Header: []string{"index"}}
	tt := &Table{ID: id + "-time", Title: "construction time (" + wk.String() + " weights)", Header: []string{"index"}}
	for _, net := range nets {
		label := fmt.Sprintf("%s(%d)", net, h.Network(net).NumVertices())
		ts.Header = append(ts.Header, label)
		tt.Header = append(tt.Header, label)
	}
	sizes := map[string][]string{}
	times := map[string][]string{}
	for _, n := range names {
		sizes[n] = []string{n}
		times[n] = []string{n}
	}
	for _, net := range nets {
		e := h.buildAll(net, wk, withSILC)
		built := e.BuiltIndexes()
		cell := func(name string, kind core.MethodKind, buildName string) {
			sizes[name] = append(sizes[name], fmtBytes(e.IndexSize(kind)))
			if buildName == "" {
				times[name] = append(times[name], "-")
				return
			}
			times[name] = append(times[name], fmtDur(built[buildName].BuildTime))
		}
		cell("Graph(INE)", core.INE, "")
		cell("Gtree", core.Gtree, "Gtree")
		cell("ROAD", core.ROAD, "ROAD")
		cell("CH", core.IERCH, "CH")
		cell("PHL", core.IERPHL, "PHL")
		cell("TNR", core.IERTNR, "TNR")
		if withSILC {
			if h.DisBrwAllowed(net) {
				cell("DisBrw(SILC)", core.DisBrw, "SILC")
			} else {
				sizes["DisBrw(SILC)"] = append(sizes["DisBrw(SILC)"], "-")
				times["DisBrw(SILC)"] = append(times["DisBrw(SILC)"], "-")
			}
		}
	}
	for _, n := range names {
		ts.Rows = append(ts.Rows, sizes[n])
		tt.Rows = append(tt.Rows, times[n])
	}
	return []*Table{ts, tt}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dus", d.Microseconds())
	}
}
