// Binary snapshot codec for TNR: the transit table, per-vertex access-node
// lists, and local cones. The transit marker array is derived from the
// serialized id map; the contraction hierarchy is not part of the index,
// which needs it only to build. Every array is written 64-byte-aligned
// (snapio raw-array layout) so a mapped snapshot aliases them with zero
// copy. See docs/SNAPSHOT_FORMAT.md.
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

// Read deserializes an index written by WriteTo, validating table and CSR
// dimensions against the graph's numVertices. The O(|V|) checks — transit
// ids in range, monotone access and cone offsets — and the access-node
// range scan run on both paths, because a query slices by the offsets and
// subscripts the transit table by access node. When sr aliases a mapped
// snapshot the arrays are views of the mapping and only the cone-vertex
// scan is skipped: a query compares cone vertices but never subscripts by
// them. The derived isTransit markers are rebuilt either way — they are
// bools, not part of the serialized layout.
func Read(sr *snapio.Source, numVertices int) (*Index, error) {
	x := &Index{}
	if v := sr.U16(); sr.Err() == nil && v != codecVersion {
		sr.Failf("tnr codec version %d (want %d)", v, codecVersion)
	}
	x.numT = int(sr.U32())
	x.transitID = snapio.ReadRaw[int32](sr)
	x.table = snapio.ReadRaw[int64](sr)
	x.accOff = snapio.ReadRaw[int32](sr)
	x.accID = snapio.ReadRaw[int32](sr)
	x.accD = snapio.ReadRaw[int64](sr)
	x.coneOff = snapio.ReadRaw[int32](sr)
	x.coneV = snapio.ReadRaw[int32](sr)
	x.coneD = snapio.ReadRaw[int64](sr)
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	n := len(x.transitID)
	m := x.numT
	switch {
	case n != numVertices:
		sr.Failf("tnr has %d vertices for %d", n, numVertices)
	case m < 0 || m > n || len(x.table) != m*m:
		sr.Failf("tnr table is %d cells for %d transit nodes", len(x.table), m)
	case len(x.accOff) != n+1 || len(x.coneOff) != n+1:
		sr.Failf("tnr offsets have %d/%d entries for %d vertices", len(x.accOff), len(x.coneOff), n)
	case x.accOff[0] != 0 || int(x.accOff[n]) != len(x.accID) || len(x.accID) != len(x.accD):
		sr.Failf("tnr access-node CSR is inconsistent")
	case x.coneOff[0] != 0 || int(x.coneOff[n]) != len(x.coneV) || len(x.coneV) != len(x.coneD):
		sr.Failf("tnr cone CSR is inconsistent")
	}
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	x.isTransit = make([]bool, n)
	for v, id := range x.transitID {
		if id < -1 || int(id) >= m {
			sr.Failf("tnr transit id %d out of range at vertex %d", id, v)
			return nil, sr.Err()
		}
		if x.accOff[v] > x.accOff[v+1] || x.coneOff[v] > x.coneOff[v+1] {
			sr.Failf("tnr offsets not monotone at %d", v)
			return nil, sr.Err()
		}
		x.isTransit[v] = id >= 0
	}
	for i, id := range x.accID {
		if id < 0 || int(id) >= m {
			sr.Failf("tnr access node %d out of range at entry %d", id, i)
			return nil, sr.Err()
		}
	}
	if !sr.Aliasing() {
		for i, v := range x.coneV {
			if v < 0 || int(v) >= n {
				sr.Failf("tnr cone vertex %d out of range at entry %d", v, i)
				return nil, sr.Err()
			}
		}
	}
	return x, nil
}
