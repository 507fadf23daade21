// Binary snapshot codec for the G-tree. The layout persists the partition
// tree, the per-node distance matrices, and every derived query-time array
// (positions, leaf CSRs, border lists, internal-node layout); ragged
// per-node data is concatenated behind an offset table, so a mapped
// snapshot holds the whole index with zero recomputation. See
// docs/SNAPSHOT_FORMAT.md.
package gtree

import (
	"io"

	"rnknn/internal/graph"
	"rnknn/internal/partition"
	"rnknn/internal/snapio"
)

// codecVersion is the G-tree section layout version.
const codecVersion uint16 = 2

// writeRagged writes n variable-length arrays as one offset table (n+1
// entries) plus their concatenation, both in the raw aligned layout.
func writeRagged(sw *snapio.Writer, items [][]int32) {
	off := make([]int32, len(items)+1)
	total := 0
	for i, it := range items {
		total += len(it)
		off[i+1] = int32(total)
	}
	data := make([]int32, 0, total)
	for _, it := range items {
		data = append(data, it...)
	}
	snapio.WriteRaw(sw, off)
	snapio.WriteRaw(sw, data)
}

// readRagged reads an array group written by writeRagged, returning the
// per-item views (subslices of the concatenation — aliased views of the
// mapping when sr aliases). want is the expected item count.
func readRagged(sr *snapio.Source, want int, what string) [][]int32 {
	off := snapio.ReadRaw[int32](sr)
	data := snapio.ReadRaw[int32](sr)
	if !sr.CheckOffsets(off, want, len(data), what) {
		return nil
	}
	items := make([][]int32, want)
	for i := range items {
		items[i] = data[off[i]:off[i+1]:off[i+1]]
	}
	return items
}

// WriteTo serializes the index (io.WriterTo).
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	sw := snapio.NewWriter(w)
	sw.U16(codecVersion)
	sw.U32(uint32(x.Tau))
	partition.Encode(x.PT, sw)

	n := len(x.nodes)
	snapio.WriteRaw(sw, x.posInLeaf)
	collect := func(f func(i int) []int32) [][]int32 {
		items := make([][]int32, n)
		for i := range items {
			items[i] = f(i)
		}
		return items
	}
	writeRagged(sw, collect(func(i int) []int32 { return x.nodes[i].borders }))
	writeRagged(sw, collect(func(i int) []int32 { return x.nodes[i].childBorders }))
	writeRagged(sw, collect(func(i int) []int32 { return x.nodes[i].childOff }))
	writeRagged(sw, collect(func(i int) []int32 { return x.nodes[i].ownIdx }))
	writeRagged(sw, x.leafOff)
	writeRagged(sw, x.leafTgt)
	writeRagged(sw, x.leafW)

	strides := make([]int32, n)
	total := 0
	for i := range x.nodes {
		strides[i] = x.nodes[i].stride
		total += len(x.nodes[i].mat)
	}
	mats := make([]int32, 0, total)
	for i := range x.nodes {
		mats = append(mats, x.nodes[i].mat...)
	}
	snapio.WriteRaw(sw, strides)
	snapio.WriteRaw(sw, mats)
	return sw.Result()
}

// Read deserializes an index written by WriteTo over g, installing every
// derived array as views of the payload (zero recomputation). validate
// checks every array the query path subscripts with; no matrix page is
// touched.
func Read(sr *snapio.Source, g *graph.Graph) (*Index, error) {
	sr.Version("gtree", codecVersion)
	tau := int(sr.U32())
	pt := partition.Decode(sr, g.NumVertices())
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	x := &Index{G: g, PT: pt, Tau: tau}
	x.nodes = make([]node, len(pt.Nodes))
	n := len(x.nodes)

	x.posInLeaf = snapio.ReadRaw[int32](sr)
	if sr.Err() == nil && len(x.posInLeaf) != g.NumVertices() {
		sr.Failf("gtree posInLeaf has %d entries for %d vertices", len(x.posInLeaf), g.NumVertices())
	}
	borders := readRagged(sr, n, "gtree border")
	childBorders := readRagged(sr, n, "gtree childBorders")
	childOff := readRagged(sr, n, "gtree childOff")
	ownIdx := readRagged(sr, n, "gtree ownIdx")
	x.leafOff = readRagged(sr, n, "gtree leafOff")
	x.leafTgt = readRagged(sr, n, "gtree leafTgt")
	x.leafW = readRagged(sr, n, "gtree leafW")
	strides := snapio.ReadRaw[int32](sr)
	mats := snapio.ReadRaw[int32](sr)
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	for ni := range x.nodes {
		nd := &x.nodes[ni]
		nd.borders = borders[ni]
		nd.childBorders = childBorders[ni]
		nd.childOff = childOff[ni]
		nd.ownIdx = ownIdx[ni]
	}
	if len(strides) != n {
		sr.Failf("gtree snapshot has %d strides, partition has %d nodes", len(strides), n)
		return nil, sr.Err()
	}
	pos := 0
	for ni := range x.nodes {
		nd := &x.nodes[ni]
		nd.stride = strides[ni]
		var cells int
		if pt.Nodes[ni].IsLeaf() {
			cells = len(nd.borders) * int(nd.stride)
		} else {
			cells = int(nd.stride) * int(nd.stride)
		}
		if nd.stride < 0 || pos+cells > len(mats) {
			sr.Failf("gtree node %d matrix [%d, %d) exceeds %d cells", ni, pos, pos+cells, len(mats))
			return nil, sr.Err()
		}
		nd.mat = mats[pos : pos+cells : pos+cells]
		pos += cells
	}
	if pos != len(mats) {
		sr.Failf("gtree matrix heap has %d cells, nodes imply %d", len(mats), pos)
		return nil, sr.Err()
	}
	return x, x.validate(sr)
}

// validate cross-checks every node's stride and matrix size against the
// dimensions its border and layout arrays imply, and range-checks every
// element the query path subscripts with, in one pass over each array: a
// decoded index cannot index out of bounds. Matrix cells and leaf weights
// stay unchecked, since a bad one gives a wrong distance, not a crash.
func (x *Index) validate(sr *snapio.Source) error {
	pt := x.PT
	fail := func(format string, args ...any) error {
		sr.Failf("gtree "+format, args...)
		return sr.Err()
	}
	for v, p := range x.posInLeaf {
		if uint32(p) >= uint32(len(pt.Nodes[pt.LeafOf[v]].Vertices)) {
			return fail("posInLeaf[%d] = %d is outside its leaf", v, p)
		}
	}
	for ni := range x.nodes {
		n, p := &x.nodes[ni], &pt.Nodes[ni]
		var wantStride, wantLen int
		if p.IsLeaf() {
			wantStride = len(p.Vertices)
			wantLen = len(n.borders) * wantStride
		} else {
			wantStride = len(n.childBorders)
			wantLen = wantStride * wantStride
		}
		if int(n.stride) != wantStride || len(n.mat) != wantLen {
			return fail("node %d matrix is %dx%d cells, want stride %d with %d cells",
				ni, n.stride, len(n.mat), wantStride, wantLen)
		}
		if !snapio.Below(n.borders, x.G.NumVertices()) || !snapio.Below(n.childBorders, x.G.NumVertices()) {
			return fail("node %d names a border outside the graph", ni)
		}
		if len(n.ownIdx) != len(n.borders) || !snapio.Below(n.ownIdx, wantStride) {
			return fail("node %d ownIdx does not index its %d borders into stride %d", ni, len(n.borders), wantStride)
		}
		if p.IsLeaf() {
			tgt := x.leafTgt[ni]
			if len(x.leafW[ni]) != len(tgt) || !snapio.Below(tgt, len(p.Vertices)) {
				return fail("leaf %d local graph is inconsistent", ni)
			}
			if !sr.CheckOffsets(x.leafOff[ni], len(p.Vertices), len(tgt), "gtree leaf graph") {
				return sr.Err()
			}
			continue
		}
		// Child i's borders are the block childOff[i]:childOff[i+1].
		ok := len(n.childOff) == len(p.Children)+1 && n.childOff[0] == 0 &&
			int(n.childOff[len(p.Children)]) == len(n.childBorders)
		for ci, c := range p.Children {
			ok = ok && n.childOff[ci+1]-n.childOff[ci] == int32(len(x.nodes[c].borders))
		}
		if !ok {
			return fail("node %d childOff does not match its children's borders", ni)
		}
	}
	return nil
}
