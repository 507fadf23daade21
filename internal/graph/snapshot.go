// Snapshot-section codec for the graph itself: the CSR arrays, both weight
// views, and the coordinates, written 64-byte-aligned (snapio raw-array
// layout) so a mapped snapshot serves the graph with zero copy — the
// decoded Graph's slices alias the mapping. This is what makes a snapshot
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
	sw.RawI32s(g.Offsets)
	sw.RawI32s(g.Targets)
	sw.RawI32s(g.DistW)
	sw.RawI32s(g.TimeW)
	sw.RawF64s(g.X)
	sw.RawF64s(g.Y)
	return sw.Result()
}

// ReadSnapshot deserializes a graph written by WriteSnapshot. Dimension
// checks always run; the per-edge structural scan (monotone offsets,
// targets in range) runs only when sr is not aliasing a mapped snapshot —
// mapped opens trust the file and touch pages on first use instead.
func ReadSnapshot(sr *snapio.Source) (*Graph, error) {
	if v := sr.U16(); sr.Err() == nil && v != snapCodecVersion {
		sr.Failf("graph codec version %d (want %d)", v, snapCodecVersion)
	}
	g := &Graph{Name: sr.String(), Kind: WeightKind(sr.U8())}
	n := int(sr.U32())
	m := int(sr.U32())
	g.Offsets = sr.AlignedI32s()
	g.Targets = sr.AlignedI32s()
	g.DistW = sr.AlignedI32s()
	g.TimeW = sr.AlignedI32s()
	g.X = sr.AlignedF64s()
	g.Y = sr.AlignedF64s()
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
		return nil, sr.Err()
	}
	switch {
	case n <= 0 || m < 0:
		sr.Failf("graph has %d vertices, %d edges", n, m)
	case len(g.Offsets) != n+1 || g.Offsets[0] != 0 || int(g.Offsets[n]) != m:
		sr.Failf("graph offsets are inconsistent for %d vertices, %d edges", n, m)
	case len(g.Targets) != m || len(g.DistW) != m || len(g.TimeW) != m:
		sr.Failf("graph edge arrays disagree with %d edges", m)
	case len(g.X) != n || len(g.Y) != n:
		sr.Failf("graph coordinates have %d/%d entries for %d vertices", len(g.X), len(g.Y), n)
	}
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	if !sr.Aliasing() {
		for v := 0; v < n; v++ {
			if g.Offsets[v] > g.Offsets[v+1] {
				sr.Failf("graph offsets not monotone at %d", v)
				return nil, sr.Err()
			}
		}
		for i, t := range g.Targets {
			if t < 0 || int(t) >= n {
				sr.Failf("graph target %d out of range at edge %d", t, i)
				return nil, sr.Err()
			}
		}
	}
	return g, nil
}
