// Binary snapshot codec for TNR: the transit table, per-vertex access-node
// lists, and local cones. The transit marker array is derived from the
// serialized id map; the contraction hierarchy is not part of the index,
// which needs it only to build. See docs/SNAPSHOT_FORMAT.md.
package tnr

import (
	"io"

	"rnknn/internal/snapio"
)

// codecVersion is the TNR section layout version.
const codecVersion uint16 = 2

// WriteTo serializes the index (io.WriterTo).
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	sw := snapio.NewWriter(w)
	sw.U16(codecVersion)
	sw.U32(uint32(x.numT))
	snapio.WriteRaw(sw, x.transitID)
	snapio.WriteRaw(sw, x.table)
	snapio.WriteRaw(sw, x.accOff)
	snapio.WriteRaw(sw, x.accID)
	snapio.WriteRaw(sw, x.accD)
	snapio.WriteRaw(sw, x.coneOff)
	snapio.WriteRaw(sw, x.coneV)
	snapio.WriteRaw(sw, x.coneD)
	return sw.Result()
}

// Read deserializes an index written by WriteTo for a graph of
// numVertices vertices. A query slices by the access and cone offsets and
// subscripts the transit table by transit id and access node, so those
// are checked on every path; cone vertices are only compared, content
// scanned only when not aliasing a mapping. The isTransit markers are
// rebuilt from the ids.
func Read(sr *snapio.Source, numVertices int) (*Index, error) {
	n := numVertices
	sr.Version("tnr", codecVersion)
	x := &Index{numT: int(sr.U32())}
	m := x.numT
	x.transitID = snapio.ReadRaw[int32](sr)
	x.table = snapio.ReadRaw[int64](sr)
	x.accOff = snapio.ReadRaw[int32](sr)
	x.accID = sr.ReadIndex(m, "tnr access node")
	x.accD = snapio.ReadRaw[int64](sr)
	x.coneOff = snapio.ReadRaw[int32](sr)
	x.coneV = snapio.ReadRaw[int32](sr)
	x.coneD = snapio.ReadRaw[int64](sr)
	switch {
	case len(x.transitID) != n:
		sr.Failf("tnr has %d vertices for %d", len(x.transitID), n)
	case m < 0 || m > n || len(x.table) != m*m:
		sr.Failf("tnr table is %d cells for %d transit nodes", len(x.table), m)
	case len(x.accID) != len(x.accD) || len(x.coneV) != len(x.coneD):
		sr.Failf("tnr access-node or cone distances disagree with their ids")
	}
	if !sr.CheckOffsets(x.accOff, n, len(x.accID), "tnr access-node") ||
		!sr.CheckOffsets(x.coneOff, n, len(x.coneV), "tnr cone") {
		return nil, sr.Err()
	}
	x.isTransit = make([]bool, n)
	for v, id := range x.transitID {
		if id < -1 || int(id) >= m {
			sr.Failf("tnr transit id %d out of range at vertex %d", id, v)
			return nil, sr.Err()
		}
		x.isTransit[v] = id >= 0
	}
	if !sr.Aliasing() && !snapio.Below(x.coneV, n) {
		sr.Failf("tnr cone vertex out of range")
		return nil, sr.Err()
	}
	return x, nil
}
