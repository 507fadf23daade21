package bitset

import "math/bits"

// pageWords is the size of one Paged page in words: 1,024 bits, 128 bytes.
const pageWords = 16

type page [pageWords]uint64

// zeroPage is the one page every empty page of every Paged set points at.
// It is never written: Edit copies a page before any bit of it may change.
var zeroPage page

// Paged is a persistent bit set over [0, n): a directory of fixed
// 1,024-bit pages. A page with no bit set is the shared zero page, and a
// version derived with Edit shares every page it does not write with the
// version it came from, so deriving the next version of a |V|-bit set
// copies the directory (one pointer per 1,024 bits) and the pages its delta
// touches, not the bits. Get is two dependent loads, a directory entry and
// a word, with no branch.
//
// A Paged value is read-only except on the pages its own Edit copied.
type Paged struct {
	dir []*page
}

// NewPaged returns an empty Paged set able to hold n bits: a directory whose
// every entry is the shared zero page. Call Edit before setting any bit.
func NewPaged(n int) Paged {
	dir := make([]*page, (n+pageWords*64-1)/(pageWords*64))
	for i := range dir {
		dir[i] = &zeroPage
	}
	return Paged{dir: dir}
}

// Get reports whether bit i is set.
func (p Paged) Get(i int32) bool {
	return p.dir[uint32(i)>>10][uint32(i)>>6&(pageWords-1)]&(1<<(uint32(i)&63)) != 0
}

// Edit returns a version of p whose pages holding the given bits are
// private copies, laid out in one slab, and whose other pages are p's. Set
// and Clear on those bits then leave p as it was; Set or Clear on any other
// bit would write a page p shares, and is not allowed.
func (p Paged) Edit(bits ...[]int32) Paged {
	dir := make([]*page, len(p.dir))
	copy(dir, p.dir)
	// A nil entry marks a touched page until the slab exists.
	touched := 0
	for _, bs := range bits {
		for _, b := range bs {
			if pg := uint32(b) >> 10; dir[pg] != nil {
				dir[pg] = nil
				touched++
			}
		}
	}
	slab := make([]page, touched)
	for _, bs := range bits {
		for _, b := range bs {
			if pg := uint32(b) >> 10; dir[pg] == nil {
				touched--
				slab[touched] = *p.dir[pg]
				dir[pg] = &slab[touched]
			}
		}
	}
	return Paged{dir: dir}
}

// Set sets bit i, which must lie on a page this version's Edit copied.
func (p Paged) Set(i int32) {
	p.dir[uint32(i)>>10][uint32(i)>>6&(pageWords-1)] |= 1 << (uint32(i) & 63)
}

// Clear clears bit i, which must lie on a page this version's Edit copied.
func (p Paged) Clear(i int32) {
	p.dir[uint32(i)>>10][uint32(i)>>6&(pageWords-1)] &^= 1 << (uint32(i) & 63)
}

// AppendOnes appends every set bit to dst in ascending order and returns
// the extended slice. It walks the directory and skips each zero-page
// entry with one pointer compare, so its cost is one step per 1,024 bits
// plus one per word of a page that is not the zero page, plus one per set
// bit.
func (p Paged) AppendOnes(dst []int32) []int32 {
	for i, pg := range p.dir {
		if pg == &zeroPage {
			continue
		}
		for j, w := range pg {
			base := int32(i*pageWords+j) << 6
			for ; w != 0; w &= w - 1 {
				dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			}
		}
	}
	return dst
}

// SizeBytes is what the set holds that an empty one does not share: the
// directory and every page that is not the zero page (pages shared with
// another version count in both).
func (p Paged) SizeBytes() int {
	n := len(p.dir) * 8
	for _, pg := range p.dir {
		if pg != &zeroPage {
			n += pageWords * 8
		}
	}
	return n
}
