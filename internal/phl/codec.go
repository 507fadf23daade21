// Binary snapshot codec for the hub labeling: the CSR label arrays are the
// entire index. See docs/SNAPSHOT_FORMAT.md.
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
// vertices. The label offsets are checked on every path; hubs and
// distances are content, scanned only when not aliasing a mapping, where
// Source masks the one subscript a hub value feeds.
func Read(sr *snapio.Source, numVertices int) (*Index, error) {
	n := numVertices
	sr.Version("phl", codecVersion)
	x := &Index{}
	x.off = snapio.ReadRaw[int32](sr)
	x.hubs = snapio.ReadRaw[int32](sr)
	x.dist = snapio.ReadRaw[int32](sr)
	if len(x.hubs) != len(x.dist) {
		sr.Failf("phl has %d hubs, %d distances", len(x.hubs), len(x.dist))
	}
	if !sr.CheckOffsets(x.off, n, len(x.hubs), "phl label") {
		return nil, sr.Err()
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
