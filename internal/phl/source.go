package phl

import (
	"math"

	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

// far marks a hub absent from the pinned label. Label distances are
// non-negative int32s, so the sum through a common hub stays below far and
// any sum through an absent hub is at least far: the scan needs no
// membership test.
const far = math.MaxUint32

// pin is a hub-indexed distance array holding one scattered label: the
// per-source state that turns a label merge into a one-sided scan. Its
// length is a power of two so a hub value subscripts it through a mask — a
// hostile mapped snapshot (whose hubs nobody validated) can make the answer
// wrong but never the subscript out of range.
type pin []uint32

func newPin(n int) pin {
	size := 1
	for size < n {
		size <<= 1
	}
	p := make(pin, size)
	for i := range p {
		p[i] = far
	}
	return p
}

// scatter pins a label; clear un-pins it by walking the same label again
// (O(label), so no stamp array and no O(|V|) reset).
func (p pin) scatter(hubs, dist []int32) {
	dist = dist[:len(hubs)]
	for i, h := range hubs {
		p[uint(h)&uint(len(p)-1)] = uint32(dist[i])
	}
}

func (p pin) clear(hubs []int32) {
	for _, h := range hubs {
		p[uint(h)&uint(len(p)-1)] = far
	}
}

// scan returns the labeled distance between the pinned label and the given
// one — one forward pass, no merge and no data-dependent branch — or a
// value >= far when they share no hub. The sum is 64-bit so no pair of
// 32-bit operands can wrap it.
func (p pin) scan(hubs, dist []int32) uint64 {
	dist = dist[:len(hubs)]
	best := uint64(far)
	for i, h := range hubs {
		best = min(best, uint64(p[uint(h)&uint(len(p)-1)])+uint64(uint32(dist[i])))
	}
	return best
}

// Source answers repeated distance queries from one pinned source vertex:
// IER's form of the oracle, the counterpart of MGtree's materialized border
// distances. NewSource scatters the source's label into a hub-indexed array
// (4 B/vertex rounded up to a power of two, owned by the Source) and every
// DistanceTo is then one scan of the target's label. It is both the
// knn.SourceFactory and the knn.SourceOracle it hands out, so pinning
// allocates nothing; like every factory it serves one session at a time.
type Source struct {
	x   *Index
	tmp pin
	s   int32 // pinned vertex, -1 before the first NewSource
}

// NewSource returns an unpinned per-session source over the labeling.
func (x *Index) NewSource() *Source {
	return &Source{x: x, tmp: newPin(len(x.off) - 1), s: -1}
}

// Name implements knn.SourceFactory.
func (p *Source) Name() string { return p.x.Name() }

// NewSource implements knn.SourceFactory: un-pin the previous source, pin s.
// Asked for the vertex it already pins, it returns at once: the shard fan
// searches every cell it opens from the same query vertex.
func (p *Source) NewSource(s int32) knn.SourceOracle {
	if s == p.s {
		return p
	}
	if p.s >= 0 {
		hubs, _ := p.x.label(p.s)
		p.tmp.clear(hubs)
	}
	p.tmp.scatter(p.x.label(s))
	p.s = s
	return p
}

// DistanceTo implements knn.SourceOracle.
func (p *Source) DistanceTo(t int32) graph.Dist {
	if t == p.s {
		return 0
	}
	if d := p.tmp.scan(p.x.label(t)); d < far {
		return graph.Dist(d)
	}
	return graph.Inf
}

var (
	_ knn.SourceFactory = (*Source)(nil)
	_ knn.SourceOracle  = (*Source)(nil)
)
