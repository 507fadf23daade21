// Package bitset provides the bit-array settled-vertex container recommended
// by the paper for expansion-based searches (Section 6.2, choice 2): one bit
// per road-network vertex, allocated per query, occupying 32x less space
// than an int array and far less than a hash set.
//
// In this repository it holds object membership and Rnet/node occupancy,
// and the settled set of the experiment harness's Figure 7 INE ladder; the
// production scans derive "settled" from their label array instead (see
// scratch.Dists).
package bitset

import "math/bits"

// Set is a fixed-capacity bit set over [0, n).
type Set struct {
	words []uint64
}

// New returns a Set able to hold n bits, all clear.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64)}
}

// Set marks bit i.
func (s *Set) Set(i int32) {
	s.words[uint32(i)>>6] |= 1 << (uint32(i) & 63)
}

// Get reports whether bit i is marked.
func (s *Set) Get(i int32) bool {
	return s.words[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0
}

// Clear unmarks bit i.
func (s *Set) Clear(i int32) {
	s.words[uint32(i)>>6] &^= 1 << (uint32(i) & 63)
}

// Clone returns an independent copy of the set. The copy is one memcpy of
// the word array, which is what makes copy-on-write epoch derivation cheap
// for the object-membership and Rnet-occupancy bitsets: mutating the clone
// never touches memory a reader of the original can observe.
func (s *Set) Clone() *Set {
	return &Set{words: append([]uint64(nil), s.words...)}
}

// Reset clears all bits, retaining capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Capacity returns the number of bits the set can hold.
func (s *Set) Capacity() int { return len(s.words) * 64 }
