// Snapshot-section codec for the graph itself: the CSR arrays, both weight
// views, and the coordinates. This is what makes a snapshot
// self-contained: a process can open one file and get graph plus indexes
// without re-reading the network from its original source.
package graph

import (
	"io"

	"rnknn/internal/snapio"
)

// snapCodecVersion is the Graph section layout version.
const snapCodecVersion uint16 = 1

// WriteSnapshot serializes g as a mappable snapshot section.
func (g *Graph) WriteSnapshot(w io.Writer) (int64, error) {
	sw := snapio.NewWriter(w)
	sw.U16(snapCodecVersion)
	sw.String(g.Name)
	sw.U8(uint8(g.Kind))
	sw.U32(uint32(g.NumVertices()))
	sw.U32(uint32(g.NumEdges()))
	snapio.WriteRaw(sw, g.Offsets)
	snapio.WriteRaw(sw, g.Targets)
	snapio.WriteRaw(sw, g.DistW)
	snapio.WriteRaw(sw, g.TimeW)
	snapio.WriteRaw(sw, g.X)
	snapio.WriteRaw(sw, g.Y)
	return sw.Result()
}

// ReadSnapshot deserializes a graph written by WriteSnapshot. Every search
// slices the edge arrays by offset and subscripts per-vertex state by
// target, so both are checked on every path; the weight and coordinate
// pages stay untouched on a mapping until first use.
func ReadSnapshot(sr *snapio.Source) (*Graph, error) {
	sr.Version("graph", snapCodecVersion)
	g := &Graph{Name: sr.String(), Kind: WeightKind(sr.U8())}
	n := int(sr.U32())
	m := int(sr.U32())
	g.Offsets = snapio.ReadRaw[int32](sr)
	g.Targets = sr.ReadIndex(n, "graph target")
	g.DistW = snapio.ReadRaw[int32](sr)
	g.TimeW = snapio.ReadRaw[int32](sr)
	g.X = snapio.ReadRaw[float64](sr)
	g.Y = snapio.ReadRaw[float64](sr)
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	switch g.Kind {
	case TravelDistance:
		g.W = g.DistW
	case TravelTime:
		g.W = g.TimeW
	default:
		sr.Failf("graph weight kind %d unknown", g.Kind)
	}
	switch {
	case n <= 0:
		sr.Failf("graph has %d vertices", n)
	case len(g.Targets) != m || len(g.DistW) != m || len(g.TimeW) != m:
		sr.Failf("graph edge arrays disagree with %d edges", m)
	case len(g.X) != n || len(g.Y) != n:
		sr.Failf("graph coordinates have %d/%d entries for %d vertices", len(g.X), len(g.Y), n)
	}
	if !sr.CheckOffsets(g.Offsets, n, m, "graph") {
		return nil, sr.Err()
	}
	return g, nil
}
