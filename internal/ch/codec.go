// Binary snapshot codec for the contraction hierarchy: the rank permutation
// and the upward CSR (original + shortcut edges) — everything the witness
// searches of Build exist to produce. The four arrays are written
// 64-byte-aligned (snapio raw-array layout) so a mapped snapshot aliases
// them with zero copy. See docs/SNAPSHOT_FORMAT.md.
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

// Read deserializes an index written by WriteTo, validating CSR invariants
// against g. When sr aliases a mapped snapshot the arrays are views of the
// mapping, so nothing of |V| size is allocated. Every check runs on both
// paths: dimensions, ranks in [0, |V|), monotone upward offsets and upward
// targets in [0, |V|) — Up slices by the offsets, PHL's build subscripts by
// rank and the searches by target. The target scan reads only the arc
// target pages.
func Read(sr *snapio.Source, g *graph.Graph) (*Index, error) {
	x := &Index{}
	if v := sr.U16(); sr.Err() == nil && v != codecVersion {
		sr.Failf("ch codec version %d (want %d)", v, codecVersion)
	}
	x.Shortcuts = int(sr.U32())
	x.rank = snapio.ReadRaw[int32](sr)
	x.upOff = snapio.ReadRaw[int32](sr)
	x.upTo = snapio.ReadRaw[int32](sr)
	x.upW = snapio.ReadRaw[int32](sr)
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	n := g.NumVertices()
	switch {
	case len(x.rank) != n:
		sr.Failf("ch rank has %d entries for %d vertices", len(x.rank), n)
	case len(x.upOff) != n+1 || x.upOff[0] != 0 || int(x.upOff[n]) != len(x.upTo) || len(x.upTo) != len(x.upW):
		sr.Failf("ch upward CSR is inconsistent")
	}
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	for v := 0; v < n; v++ {
		if x.rank[v] < 0 || int(x.rank[v]) >= n {
			sr.Failf("ch rank[%d]=%d out of range", v, x.rank[v])
			return nil, sr.Err()
		}
		if x.upOff[v] > x.upOff[v+1] {
			sr.Failf("ch upward offsets not monotone at %d", v)
			return nil, sr.Err()
		}
	}
	for i, t := range x.upTo {
		if t < 0 || int(t) >= n {
			sr.Failf("ch upward target %d out of range at edge %d", t, i)
			return nil, sr.Err()
		}
	}
	return x, nil
}
