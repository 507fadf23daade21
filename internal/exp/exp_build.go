package exp

import (
	"fmt"
	"time"

	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/geo"
	"rnknn/internal/graph"
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
		silcIndex(e)
	}
	return e
}

func init() {
	register("table1", "road network datasets (Table 1 analogue)", func(h *Harness) []*Table {
		specs := gen.Ladder()
		names := make([]string, len(specs))
		for i, spec := range specs {
			names[i] = spec.Name
		}
		return []*Table{grid("table1", "synthetic dataset ladder", "name", names,
			[]string{"|V|", "|E|", "deg<=2 frac", "connected"}, byRow(func(r int) []string {
				g := h.network(specs[r])
				return []string{fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges() / 2),
					fmt.Sprintf("%.2f", g.ChainFraction()), fmt.Sprint(g.Connected())}
			}))}
	})

	register("table2", "real-world object sets (Table 2 analogue)", func(h *Harness) []*Table {
		var out []*Table
		for _, net := range []string{Medium, Large} {
			g := h.Network(net)
			cats := gen.POICategories(g, h.cfg.Seed+5)
			names := make([]string, len(cats))
			for i, c := range cats {
				names[i] = c.Name
			}
			out = append(out, grid("table2-"+net, "POI categories on "+net, "category", names,
				[]string{"size", "density", "clustered"}, byRow(func(r int) []string {
					n := len(cats[r].Vertices)
					return []string{fmt.Sprint(n), fmt.Sprintf("%.5f", float64(n)/float64(g.NumVertices())), fmt.Sprint(cats[r].Clustered)}
				})))
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
		g := h.Network(Large)
		e := h.Engine(Large, graph.TravelDistance)
		// The road-network indexes are built before the timed loop, so no
		// column's build time counts them.
		gt, rd := e.GtreeIndex(), e.ROADIndex()
		cols := h.densityCols(Large)
		type built struct{ size, took []string }
		// Each density's object indexes are built once; both tables read them.
		at := memo(func(c int) built {
			objs := cols[c].objs
			b := built{size: []string{fmtBytes(objs.SizeBytes())}}
			timed := func(build func() interface{ SizeBytes() int }) {
				start := time.Now()
				x := build()
				b.took = append(b.took, fmtDur(time.Since(start)))
				b.size = append(b.size, fmtBytes(x.SizeBytes()))
			}
			timed(func() interface{ SizeBytes() int } { return gt.NewOccurrenceList(objs) })
			timed(func() interface{ SizeBytes() int } { return rd.NewAssociationDirectory(objs) })
			timed(func() interface{ SizeBytes() int } {
				verts := objs.Vertices()
				pts := make([]geo.Point, len(verts))
				for i, v := range verts {
					pts[i] = geo.Point{X: g.X[v], Y: g.Y[v]}
				}
				return rtree.New(verts, pts, 0)
			})
			return b
		})
		indexes := []string{"INE (object set)", "G-tree occ. list", "ROAD assoc. dir", "IER/DB R-tree"}
		return []*Table{
			grid("fig18a", "object index size vs density", "index", indexes, labels("%v", cols), func(r, c int) string { return at(c).size[r] }),
			grid("fig18b", "object index build time vs density", "index", indexes[1:], labels("%v", cols), func(r, c int) string { return at(c).took[r] }),
		}
	})
}

// buildTables produces the Figure 8 / Figure 26 pair: index sizes and
// construction times over the ladder.
func (h *Harness) buildTables(id string, wk graph.WeightKind, withSILC bool) []*Table {
	nets := h.ladder()
	type index struct {
		name  string
		kind  core.MethodKind
		build string // the BuiltIndexes entry; "" for the graph itself
	}
	indexes := []index{{"Graph(INE)", core.INE, ""}, {"Gtree", core.Gtree, "Gtree"}, {"ROAD", core.ROAD, "ROAD"},
		{"CH", core.IERCH, "CH"}, {"PHL", core.IERPHL, "PHL"}, {"TNR", core.IERTNR, "TNR"}}
	if withSILC {
		indexes = append(indexes, index{name: "DisBrw(SILC)"})
	}
	names := make([]string, len(indexes))
	for i, x := range indexes {
		names[i] = x.name
	}
	engine := memo(func(c int) *core.Engine { return h.buildAll(nets[c], wk, withSILC) })
	cell := func(took bool) func(r, c int) string {
		return func(r, c int) string {
			e, x := engine(c), indexes[r]
			switch {
			case x.name == "DisBrw(SILC)" && !h.DisBrwAllowed(nets[c]):
				return "-"
			case x.name == "DisBrw(SILC)" && took:
				return fmtDur(silcIndex(e).took)
			case x.name == "DisBrw(SILC)":
				return fmtBytes(silcIndex(e).x.SizeBytes())
			case !took:
				return fmtBytes(e.IndexSize(x.kind))
			case x.build == "":
				return "-"
			}
			return fmtDur(e.BuiltIndexes()[x.build].BuildTime)
		}
	}
	return []*Table{
		grid(id+"-size", "index size ("+wk.String()+" weights)", "index", names, h.netLabels(nets), cell(false)),
		grid(id+"-time", "construction time ("+wk.String()+" weights)", "index", names, h.netLabels(nets), cell(true)),
	}
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
