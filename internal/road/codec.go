// Binary snapshot codec for ROAD. Persists the partition tree and the
// global shortcut array (the Dijkstra-heavy build products); border lists,
// matrix offsets, and the Route Overlay are recomputed on load by the same
// deterministic passes Build runs (layout, buildRouteOverlay). The section
// uses the snapio raw 64-byte-aligned arrays so a mapped snapshot aliases
// the tree and the shortcut array with zero copy. See
// docs/SNAPSHOT_FORMAT.md.
package road

import (
	"io"

	"rnknn/internal/graph"
	"rnknn/internal/partition"
	"rnknn/internal/snapio"
)

// codecVersion is the ROAD section layout version.
const codecVersion uint16 = 2

// WriteTo serializes the index (io.WriterTo).
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	sw := snapio.NewWriter(w)
	sw.U16(codecVersion)
	sw.U32(uint32(x.Levels))
	partition.Encode(x.PT, sw)
	snapio.WriteRaw(sw, x.shorts)
	return sw.Result()
}

// Read deserializes an index written by WriteTo, rebuilding borders, matrix
// offsets, and the Route Overlay over g and validating the shortcut array
// length against them. A levels field below the decoded tree's depth is
// refused.
func Read(sr *snapio.Source, g *graph.Graph) (*Index, error) {
	if v := sr.U16(); sr.Err() == nil && v != codecVersion {
		sr.Failf("road codec version %d (want %d)", v, codecVersion)
	}
	levels := int(sr.U32())
	pt := partition.Decode(sr, g.NumVertices())
	shorts := snapio.ReadRaw[int32](sr)
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	if h := pt.Height(); levels < h-1 {
		sr.Failf("road levels %d, partition tree is %d deep", levels, h-1)
		return nil, sr.Err()
	}
	x := &Index{G: g, PT: pt, Levels: levels, shorts: shorts}
	x.layout()
	if len(shorts) != int(x.matOff[len(pt.Nodes)]) {
		sr.Failf("road shortcut array has %d cells, borders imply %d",
			len(shorts), x.matOff[len(pt.Nodes)])
		return nil, sr.Err()
	}
	x.buildRouteOverlay()
	return x, nil
}
