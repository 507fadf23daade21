// Binary snapshot codec for SILC — the index whose O(|V|^2 log |V|) build
// makes persistence pay off most. Persists the Morton permutation and every
// source's Morton list (block starts, first moves, and the conservative
// lambda bounds as raw IEEE-754 bits, so reloaded intervals are bit-identical
// to the built ones); the degree-2 chain marks are recomputed from the
// graph. The blocks are one aligned array-of-structs — exactly the
// in-memory []block layout on little-endian hosts — so a mapped snapshot
// aliases the entire Morton-list heap with zero copy. See
// docs/SNAPSHOT_FORMAT.md.
package silc

import (
	"encoding/binary"
	"io"
	"math"
	"unsafe"

	"rnknn/internal/graph"
	"rnknn/internal/snapio"
)

// codecVersion is the SILC section layout version.
const codecVersion uint16 = 2

// blockSize is the wire size of one block: start i32, first i32, lamLo
// f32, lamHi f32, little endian — which the compile-time asserts below pin
// to the in-memory struct layout so the aliased AoS read is sound.
const blockSize = 16

var (
	_ [blockSize - unsafe.Sizeof(block{})]byte
	_ [unsafe.Sizeof(block{}) - blockSize]byte
)

// WriteTo serializes the index (io.WriterTo).
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	sw := snapio.NewWriter(w)
	sw.U16(codecVersion)
	sw.Bool(x.ChainOptimization)
	snapio.WriteRaw(sw, x.rank)
	snapio.WriteRaw(sw, x.byRank)
	// Morton lists as one CSR: per-source offsets, then the blocks
	// flattened into a single aligned array-of-structs.
	n := len(x.trees)
	off := make([]int32, n+1)
	total := 0
	for s, tree := range x.trees {
		total += len(tree)
		off[s+1] = int32(total)
	}
	blocks := make([]block, 0, total)
	for _, tree := range x.trees {
		blocks = append(blocks, tree...)
	}
	snapio.WriteRaw(sw, off)
	sw.U32(uint32(total))
	sw.Align64()
	writeBlocks(sw, blocks)
	return sw.Result()
}

// writeBlocks emits the raw little-endian AoS bytes: verbatim on
// little-endian hosts, field-wise elsewhere (identical bytes either way).
func writeBlocks(sw *snapio.Writer, blocks []block) {
	if snapio.HostLittleEndian() {
		if len(blocks) > 0 {
			sw.RawBytes(unsafe.Slice((*byte)(unsafe.Pointer(&blocks[0])), len(blocks)*blockSize))
		}
		return
	}
	var scratch [blockSize]byte
	for i := range blocks {
		b := &blocks[i]
		binary.LittleEndian.PutUint32(scratch[0:], uint32(b.start))
		binary.LittleEndian.PutUint32(scratch[4:], uint32(b.first))
		binary.LittleEndian.PutUint32(scratch[8:], math.Float32bits(b.lamLo))
		binary.LittleEndian.PutUint32(scratch[12:], math.Float32bits(b.lamHi))
		sw.RawBytes(scratch[:])
	}
}

// Read deserializes an index written by WriteTo over g, recomputing the
// chain marks. Queries subscript by rank and by each block's first move,
// and binary-search each Morton list assuming its first block starts at
// rank 0, so those are checked on every path, with the permutation and the
// list offsets. The order of the later block starts is content: a wrong
// one misroutes a lookup inside the list, and is scanned only when not
// aliasing a mapping.
func Read(sr *snapio.Source, g *graph.Graph) (*Index, error) {
	n := g.NumVertices()
	sr.Version("silc", codecVersion)
	chainOpt := sr.Bool()
	rank := sr.ReadIndex(n, "silc rank")
	byRank := sr.ReadIndex(n, "silc byRank")
	off := snapio.ReadRaw[int32](sr)
	nb, raw, aliased := sr.AlignedRaw(blockSize, 4)
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	var blocks []block
	switch {
	case nb == 0:
	case aliased:
		blocks = unsafe.Slice((*block)(unsafe.Pointer(&raw[0])), nb)
	default:
		blocks = make([]block, nb)
		for i := range blocks {
			b := raw[i*blockSize:]
			blocks[i] = block{
				start: int32(binary.LittleEndian.Uint32(b[0:])),
				first: int32(binary.LittleEndian.Uint32(b[4:])),
				lamLo: math.Float32frombits(binary.LittleEndian.Uint32(b[8:])),
				lamHi: math.Float32frombits(binary.LittleEndian.Uint32(b[12:])),
			}
		}
	}
	if len(rank) != n || len(byRank) != n {
		sr.Failf("silc permutation has %d/%d entries for %d vertices", len(rank), len(byRank), n)
	}
	if !sr.CheckOffsets(off, n, len(blocks), "silc Morton-list") {
		return nil, sr.Err()
	}
	for v := 0; v < n; v++ {
		if byRank[rank[v]] != int32(v) {
			sr.Failf("silc Morton permutation is not a bijection at vertex %d", v)
			return nil, sr.Err()
		}
	}
	for i := range blocks {
		if blocks[i].first < 0 || int(blocks[i].first) >= n {
			sr.Failf("silc first move %d out of range at block %d", blocks[i].first, i)
			return nil, sr.Err()
		}
	}
	x := &Index{
		G:                 g,
		rank:              rank,
		byRank:            byRank,
		trees:             make([][]block, n),
		isChain:           make([]bool, n),
		ChainOptimization: chainOpt,
	}
	for v := int32(0); v < int32(n); v++ {
		x.isChain[v] = g.Degree(v) <= 2
	}
	for s := 0; s < n; s++ {
		tree := blocks[off[s]:off[s+1]:off[s+1]]
		if len(tree) == 0 || tree[0].start != 0 {
			sr.Failf("silc source %d has an empty or misaligned Morton list", s)
			return nil, sr.Err()
		}
		if !sr.Aliasing() {
			for i := 1; i < len(tree); i++ {
				if tree[i].start <= tree[i-1].start || int(tree[i].start) >= n {
					sr.Failf("silc source %d block starts not increasing in [0, %d)", s, n)
					return nil, sr.Err()
				}
			}
		}
		x.trees[s] = tree
	}
	return x, nil
}
