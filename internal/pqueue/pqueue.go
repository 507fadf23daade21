// Package pqueue provides the heap priority queues used by every method in
// this repository, one heap per traffic pattern.
//
// The primary queue (Queue) follows the paper's main-memory guidance
// (Section 6.2, choice 1): it does not support decrease-key. Stale duplicate
// entries are allowed and filtered by the caller (a popped entry is stale
// when its key no longer equals the vertex's label), which on degree-bounded
// road networks is cheaper than maintaining a position index for key
// updates. It is a 4-ary heap whose Pop picks the smallest child by
// arithmetic on the sign bit of a key difference instead of a data-dependent
// branch, which is where a binary heap's Pop spends its time (one
// mispredicted branch per level). Besides the expansions it carries IER's
// pending-emission buffer and the R-tree's best-first scan.
//
// Key domain: any two keys live in one Queue must differ by less than 2^63,
// so that a-b is negative exactly when a < b. Every caller satisfies it:
// distances lie in [0, graph.Inf] (Inf is MaxInt64/4), CH's signed node
// priorities are small, and the R-tree scan keys a Euclidean distance
// d >= 0 by math.Float64bits(d), which orders as d does and lies in
// [0, 2^63). A NaN distance, which a NaN coordinate in a hostile mapped
// file can produce, may carry the sign bit and so fall outside the domain:
// such an entry may pop out of order, but every Pop still removes one
// entry, so a scan still ends.
//
// IndexedQueue is the decrease-key form of the same 4-ary heap, for scans
// that keep re-offering queued vertices lower keys (ROAD's shortcut rows).
// MaxQueue is a binary max-heap for bounded top-k selection (IER's
// candidates, the shared INE group's per-member bounds, with ReplaceTop)
// and for Distance Browsing's candidate list.
package pqueue

import "rnknn/internal/scratch"

// Item is a heap entry: an identifier ordered by Key.
type Item struct {
	ID  int32
	Key int64
}

// Queue is a 4-ary min-heap of Items without decrease-key: the children of
// slot i are slots 4i+1..4i+4. The zero value is an empty queue ready to
// use.
type Queue struct {
	a []Item
}

// NewQueue returns a queue with capacity hint n.
func NewQueue(n int) *Queue { return &Queue{a: make([]Item, 0, n)} }

// Len returns the number of entries, counting duplicates.
func (q *Queue) Len() int { return len(q.a) }

// Reset empties the queue, retaining capacity.
func (q *Queue) Reset() { q.a = q.a[:0] }

// Push inserts id with the given key.
func (q *Queue) Push(id int32, key int64) {
	q.a = append(q.a, Item{})
	q.up(len(q.a)-1, Item{id, key})
}

// less is 1 when a < b and 0 otherwise, without a branch (see the key
// domain in the package comment).
func less(a, b int64) int { return int(uint64(a-b) >> 63) }

// Pop removes and returns the minimum-key item. It panics on an empty queue.
//
// The hole left at the root walks down to a leaf, taking the smallest child
// at every level without comparing against the displaced tail item, which
// is then sifted up from that leaf. In a Dijkstra-style scan the tail is a
// recent, large key that belongs near the bottom, so the sift-up is short
// and the walk down needs no unpredictable branch.
func (q *Queue) Pop() Item {
	a := q.a
	top := a[0]
	n := len(a) - 1
	tail := a[n]
	a = a[:n]
	q.a = a
	if n == 0 {
		return top
	}
	i := 0
	for {
		l := 4*i + 1
		if l+4 > n {
			// The last, partial group: 0-3 children, all of them leaves.
			if l < n {
				c := l
				for j := l + 1; j < n; j++ {
					c += (j - c) * less(a[j].Key, a[c].Key)
				}
				a[i] = a[c]
				i = c
			}
			break
		}
		// A full group: the smaller of each pair, then the smaller of the
		// two winners. The &3 masks change no value; they let the compiler
		// drop the bounds checks on g.
		g := a[l : l+4 : l+4]
		c01 := less(g[1].Key, g[0].Key)
		c23 := 2 + less(g[3].Key, g[2].Key)
		c := (c01 + (c23-c01)*less(g[c23&3].Key, g[c01].Key)) & 3
		a[i] = g[c]
		i = l + c
	}
	q.up(i, tail)
	return top
}

// MinKey returns the smallest key without removing it, or max int64 if empty.
func (q *Queue) MinKey() int64 {
	if len(q.a) == 0 {
		return int64(^uint64(0) >> 1)
	}
	return q.a[0].Key
}

// Empty reports whether the queue has no entries.
func (q *Queue) Empty() bool { return len(q.a) == 0 }

// up places item into the hole at slot i, moving larger ancestors down.
func (q *Queue) up(i int, item Item) {
	a := q.a
	for i > 0 {
		parent := (i - 1) >> 2
		if a[parent].Key <= item.Key {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = item
}

// MaxQueue is a binary max-heap of Items: the bounded top-k of IER and of
// the shared INE group (the k-th distance so far at the top, replaced in
// one sift when a nearer candidate arrives) and Distance Browsing's
// candidate list L (largest upper bound at the top). The zero value is
// ready to use.
type MaxQueue struct {
	a []Item
}

// Len returns the number of entries.
func (q *MaxQueue) Len() int { return len(q.a) }

// Reset empties the queue, retaining capacity.
func (q *MaxQueue) Reset() { q.a = q.a[:0] }

// Push inserts id with the given key.
func (q *MaxQueue) Push(id int32, key int64) {
	q.a = append(q.a, Item{})
	q.up(len(q.a)-1, Item{id, key})
}

// Pop removes and returns the maximum-key item. It panics on an empty queue.
func (q *MaxQueue) Pop() Item {
	top := q.a[0]
	n := len(q.a) - 1
	tail := q.a[n]
	q.a = q.a[:n]
	if n > 0 {
		q.down(0, tail)
	}
	return top
}

// ReplaceTop replaces the maximum-key item with id at key in one sift and
// returns the replaced item: a Pop and a Push at the cost of one. It
// panics on an empty queue.
func (q *MaxQueue) ReplaceTop(id int32, key int64) Item {
	top := q.a[0]
	q.down(0, Item{id, key})
	return top
}

// MaxKey returns the largest key without removing it, or min int64 if empty.
func (q *MaxQueue) MaxKey() int64 {
	if len(q.a) == 0 {
		return -int64(^uint64(0)>>1) - 1
	}
	return q.a[0].Key
}

// Items returns the underlying entries in heap (not sorted) order. The slice
// aliases internal storage.
func (q *MaxQueue) Items() []Item { return q.a }

// Remove deletes the first entry with the given id, if present, and reports
// whether one was removed. It is O(n) and used only where Distance Browsing
// must delete a candidate from L.
func (q *MaxQueue) Remove(id int32) bool {
	for i := range q.a {
		if q.a[i].ID == id {
			n := len(q.a) - 1
			tail := q.a[n]
			q.a = q.a[:n]
			switch {
			case i == n: // the tail itself was removed
			case i > 0 && q.a[(i-1)/2].Key < tail.Key:
				q.up(i, tail)
			default:
				q.down(i, tail)
			}
			return true
		}
	}
	return false
}

// up places item into the hole at slot i, moving smaller ancestors down.
func (q *MaxQueue) up(i int, item Item) {
	a := q.a
	for i > 0 {
		parent := (i - 1) / 2
		if a[parent].Key >= item.Key {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = item
}

// down places item into the hole at slot i, moving larger children up.
func (q *MaxQueue) down(i int, item Item) {
	a := q.a
	for {
		c := 2*i + 1
		if c >= len(a) {
			break
		}
		if r := c + 1; r < len(a) && a[r].Key > a[c].Key {
			c = r
		}
		if a[c].Key <= item.Key {
			break
		}
		a[i] = a[c]
		i = c
	}
	a[i] = item
}

// IndexedQueue is a 4-ary min-heap with decrease-key over ids in [0, n):
// an id is queued at most once, and a position map records its slot, so a
// lower key moves the queued entry up instead of adding a duplicate. It
// serves the scans whose relaxations keep re-offering queued vertices lower
// keys — ROAD's shortcut rows — where a duplicate-tolerant Queue pops more
// stale entries than live ones. Positions live in a stamped scratch.Map32,
// so Reset is O(1), and Pop takes the smallest child with Queue's sign-bit
// select. The key domain is Queue's.
type IndexedQueue struct {
	a   []Item
	pos *scratch.Map32 // id -> slot in a; -1 once popped
}

// NewIndexedQueue returns an empty queue over ids in [0, n).
func NewIndexedQueue(n int) *IndexedQueue {
	return &IndexedQueue{pos: scratch.NewMap32(n)}
}

// Len returns the number of entries.
func (q *IndexedQueue) Len() int { return len(q.a) }

// Empty reports whether the queue has no entries.
func (q *IndexedQueue) Empty() bool { return len(q.a) == 0 }

// Reset empties the queue in O(1), retaining capacity.
func (q *IndexedQueue) Reset() {
	q.a = q.a[:0]
	q.pos.Reset()
}

// PushOrDecrease inserts id with key, or lowers its key if it is queued
// with a larger one. It reports whether the queue changed. An id that was
// popped since the last Reset is inserted again.
func (q *IndexedQueue) PushOrDecrease(id int32, key int64) bool {
	if i, ok := q.pos.Get(id); ok && i >= 0 {
		if q.a[i].Key <= key {
			return false
		}
		q.up(int(i), Item{id, key})
		return true
	}
	q.a = append(q.a, Item{})
	q.up(len(q.a)-1, Item{id, key})
	return true
}

// Pop removes and returns the minimum-key item. It panics on an empty
// queue. The hole at the root walks down as in Queue.Pop, recording each
// entry it moves up.
func (q *IndexedQueue) Pop() Item {
	a := q.a
	top := a[0]
	q.pos.Put(top.ID, -1)
	n := len(a) - 1
	tail := a[n]
	a = a[:n]
	q.a = a
	if n == 0 {
		return top
	}
	i := 0
	for {
		l := 4*i + 1
		if l+4 > n {
			if l < n {
				c := l
				for j := l + 1; j < n; j++ {
					c += (j - c) * less(a[j].Key, a[c].Key)
				}
				a[i] = a[c]
				q.pos.Put(a[i].ID, int32(i))
				i = c
			}
			break
		}
		g := a[l : l+4 : l+4]
		c01 := less(g[1].Key, g[0].Key)
		c23 := 2 + less(g[3].Key, g[2].Key)
		c := (c01 + (c23-c01)*less(g[c23&3].Key, g[c01].Key)) & 3
		a[i] = g[c]
		q.pos.Put(a[i].ID, int32(i))
		i = l + c
	}
	q.up(i, tail)
	return top
}

// up places item into the hole at slot i, moving larger ancestors down and
// recording every slot it writes.
func (q *IndexedQueue) up(i int, item Item) {
	a := q.a
	for i > 0 {
		parent := (i - 1) >> 2
		if a[parent].Key <= item.Key {
			break
		}
		a[i] = a[parent]
		q.pos.Put(a[i].ID, int32(i))
		i = parent
	}
	a[i] = item
	q.pos.Put(item.ID, int32(i))
}
