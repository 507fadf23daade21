// Binary snapshot codec for the hub labeling: the CSR label arrays are the
// entire index. The three arrays are written 64-byte-aligned (snapio
// raw-array layout) so a mapped snapshot aliases them with zero copy. See
// docs/SNAPSHOT_FORMAT.md.
package phl

import (
	"io"

	"rnknn/internal/snapio"
)

// codecVersion is the PHL section layout version.
const codecVersion uint16 = 2

// WriteTo serializes the index (io.WriterTo).
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	sw := snapio.NewWriter(w)
	sw.U16(codecVersion)
	snapio.WriteRaw(sw, x.off)
	snapio.WriteRaw(sw, x.hubs)
	snapio.WriteRaw(sw, x.dist)
	return sw.Result()
}

// Read deserializes an index written by WriteTo for a graph of numVertices
// vertices, validating the CSR invariants. When sr aliases a mapped
// snapshot, the label arrays are views of the mapping and the per-element
// label scans (hubs in [0, numVertices), distances >= 0) are skipped — they
// would fault in every label page; mapped opens trust the labels, and
// Source masks the one subscript a hub value feeds. Dimensions and the
// monotone offsets every label slice relies on are checked on both paths.
func Read(sr *snapio.Source, numVertices int) (*Index, error) {
	x := &Index{}
	if v := sr.U16(); sr.Err() == nil && v != codecVersion {
		sr.Failf("phl codec version %d (want %d)", v, codecVersion)
	}
	x.off = snapio.ReadRaw[int32](sr)
	x.hubs = snapio.ReadRaw[int32](sr)
	x.dist = snapio.ReadRaw[int32](sr)
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	n := numVertices
	if len(x.off) != n+1 || x.off[0] != 0 || int(x.off[n]) != len(x.hubs) || len(x.hubs) != len(x.dist) {
		sr.Failf("phl label CSR is inconsistent for %d vertices", n)
		return nil, sr.Err()
	}
	for v := 0; v < n; v++ {
		if x.off[v] > x.off[v+1] {
			sr.Failf("phl offsets not monotone at %d", v)
			return nil, sr.Err()
		}
	}
	if !sr.Aliasing() {
		for i, h := range x.hubs {
			if h < 0 || int(h) >= n || x.dist[i] < 0 {
				sr.Failf("phl label entry %d (hub %d, dist %d) out of range", i, h, x.dist[i])
				return nil, sr.Err()
			}
		}
	}
	return x, nil
}
