// Package scratch provides the reusable, epoch-stamped scratch containers
// behind the zero-allocation query hot paths (the Section 6.2 lesson —
// pre-allocate working storage once, reset it in O(1) — applied uniformly).
//
// Every container pairs its payload with a generation stamp: an entry is
// live only when its stamp equals the container's current generation, so
// Reset is a single counter increment instead of a clear. When the 32-bit
// generation wraps, the stamps are cleared once — an O(n) event every
// 2^32-1 resets, amortized to nothing.
//
// Containers are not safe for concurrent use; each query session owns its
// own set.
package scratch

import "rnknn/internal/graph"

// Dists is the stamped label array of the Dijkstra-style scans (INE and its
// range form, ROAD, the dijkstra solvers): one interleaved {distance,
// generation} record per vertex, so a relaxation touches one cache line
// where separate dist and stamp arrays touched two. A slot with no entry
// this generation reads as graph.Inf.
//
// The scans keep no settled container beside it. They push a vertex only
// when Lower succeeds, so the keys pushed for one vertex strictly decrease
// and a popped entry (v, key) is current exactly when key == Get(v), stale
// otherwise; and because edge weights are positive, a relaxation out of a
// vertex at distance d can never lower the label of a vertex settled at
// distance <= d, so Lower already refuses settled targets.
type Dists struct {
	a   []label
	cur uint32
}

type label struct {
	dist  graph.Dist
	stamp uint32
}

// NewDists returns a stamped label array over n slots.
func NewDists(n int) *Dists {
	return &Dists{a: make([]label, n), cur: 1}
}

// Len returns the number of slots.
func (d *Dists) Len() int { return len(d.a) }

// Reset invalidates every entry in O(1).
func (d *Dists) Reset() {
	d.cur++
	if d.cur == 0 { // wrapped: clear once, then restart at generation 1
		for i := range d.a {
			d.a[i].stamp = 0
		}
		d.cur = 1
	}
}

// Get returns the distance of v, or graph.Inf when v has no entry this
// generation.
func (d *Dists) Get(v int32) graph.Dist {
	l := &d.a[v]
	if l.stamp != d.cur {
		return graph.Inf
	}
	return l.dist
}

// Set records the distance of v for the current generation.
func (d *Dists) Set(v int32, dist graph.Dist) {
	d.a[v] = label{dist, d.cur}
}

// Lower records dist for v if it is smaller than v's current entry (or v
// has none) and reports whether it did: the relaxation step.
func (d *Dists) Lower(v int32, dist graph.Dist) bool {
	l := &d.a[v]
	if l.stamp == d.cur && l.dist <= dist {
		return false
	}
	*l = label{dist, d.cur}
	return true
}

// Set is a stamped membership set over [0, n): the "evicted"/"seen"
// container that replaces per-query map[int32]bool allocations. The zero
// generation trick makes Clear-all O(1).
type Set struct {
	stamp []uint32
	cur   uint32
}

// NewSet returns a stamped set over n slots.
func NewSet(n int) *Set {
	return &Set{stamp: make([]uint32, n), cur: 1}
}

// Len returns the number of slots.
func (s *Set) Len() int { return len(s.stamp) }

// Reset empties the set in O(1).
func (s *Set) Reset() {
	s.cur++
	if s.cur == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.cur = 1
	}
}

// Add inserts v.
func (s *Set) Add(v int32) { s.stamp[v] = s.cur }

// Remove deletes v.
func (s *Set) Remove(v int32) { s.stamp[v] = 0 }

// Contains reports whether v is in the set.
func (s *Set) Contains(v int32) bool { return s.stamp[v] == s.cur }

// Map32 is a stamped sparse int32-to-int32 map over keys in [0, n): the
// allocation-free replacement for the per-query (and per-build-step)
// map[int32]int32 position maps. Lookup and store are array indexing, and
// a key's value sits beside its stamp, so one touches one cache line.
type Map32 struct {
	a   []entry32
	cur uint32
}

type entry32 struct {
	val   int32
	stamp uint32
}

// NewMap32 returns a stamped map over n key slots.
func NewMap32(n int) *Map32 {
	return &Map32{a: make([]entry32, n), cur: 1}
}

// Len returns the number of key slots.
func (m *Map32) Len() int { return len(m.a) }

// Reset empties the map in O(1).
func (m *Map32) Reset() {
	m.cur++
	if m.cur == 0 {
		for i := range m.a {
			m.a[i].stamp = 0
		}
		m.cur = 1
	}
}

// Get returns the value stored under k and whether k is present.
func (m *Map32) Get(k int32) (int32, bool) {
	e := m.a[k]
	if e.stamp != m.cur {
		return 0, false
	}
	return e.val, true
}

// Put stores v under k.
func (m *Map32) Put(k, v int32) {
	m.a[k] = entry32{v, m.cur}
}
