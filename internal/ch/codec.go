// Binary snapshot codec for the contraction hierarchy: the rank permutation
// and the upward CSR (original + shortcut edges) — everything the witness
// searches of Build exist to produce. See docs/SNAPSHOT_FORMAT.md.
package ch

import (
	"io"

	"rnknn/internal/graph"
	"rnknn/internal/snapio"
)

// codecVersion is the CH section layout version.
const codecVersion uint16 = 2

// WriteTo serializes the index (io.WriterTo).
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	sw := snapio.NewWriter(w)
	sw.U16(codecVersion)
	sw.U32(uint32(x.Shortcuts))
	snapio.WriteRaw(sw, x.rank)
	snapio.WriteRaw(sw, x.upOff)
	snapio.WriteRaw(sw, x.upTo)
	snapio.WriteRaw(sw, x.upW)
	return sw.Result()
}

// Read deserializes an index written by WriteTo over g. PHL's build
// subscripts by rank and slices by the upward offsets, and every search
// subscripts by upward target, so all three are checked on every path.
func Read(sr *snapio.Source, g *graph.Graph) (*Index, error) {
	n := g.NumVertices()
	sr.Version("ch", codecVersion)
	x := &Index{Shortcuts: int(sr.U32())}
	x.rank = sr.ReadIndex(n, "ch rank")
	x.upOff = snapio.ReadRaw[int32](sr)
	x.upTo = sr.ReadIndex(n, "ch upward target")
	x.upW = snapio.ReadRaw[int32](sr)
	if len(x.rank) != n || len(x.upTo) != len(x.upW) {
		sr.Failf("ch has %d ranks, %d upward targets and %d weights for %d vertices",
			len(x.rank), len(x.upTo), len(x.upW), n)
	}
	if !sr.CheckOffsets(x.upOff, n, len(x.upTo), "ch upward") {
		return nil, sr.Err()
	}
	return x, nil
}
