// Package pqueue provides the heap priority queues used by every method in
// this repository.
//
// The primary queue (Queue) follows the paper's main-memory guidance
// (Section 6.2, choice 1): it does not support decrease-key. Stale duplicate
// entries are allowed and filtered by the caller (a popped entry is stale
// when its key no longer equals the vertex's label), which on degree-bounded
// road networks is cheaper than maintaining a position index for key
// updates. It is a 4-ary heap whose Pop picks the smallest child by
// arithmetic on the sign bit of a key difference instead of a data-dependent
// branch, which is where a binary heap's Pop spends its time (one
// mispredicted branch per level).
//
// Key domain: any two keys live in one Queue must differ by less than 2^63,
// so that a-b is negative exactly when a < b. Every caller satisfies it:
// distances lie in [0, graph.Inf] (Inf is MaxInt64/4) and CH's signed node
// priorities are small.
//
// MaxQueue (Distance Browsing's candidate list) and IndexedQueue (the
// decrease-key first rung of the experiment harness's Figure 7 INE ladder)
// are plain binary heaps.
package pqueue

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

// MaxQueue is a binary max-heap of Items, used for the candidate list L in
// Distance Browsing (largest upper bound at the top). The zero value is
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
	q.a = append(q.a, Item{id, key})
	i := len(q.a) - 1
	item := q.a[i]
	for i > 0 {
		parent := (i - 1) / 2
		if q.a[parent].Key >= item.Key {
			break
		}
		q.a[i] = q.a[parent]
		i = parent
	}
	q.a[i] = item
}

// Pop removes and returns the maximum-key item. It panics on an empty queue.
func (q *MaxQueue) Pop() Item {
	top := q.a[0]
	last := len(q.a) - 1
	q.a[0] = q.a[last]
	q.a = q.a[:last]
	n := len(q.a)
	i := 0
	if n > 0 {
		item := q.a[0]
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			c := l
			if r := l + 1; r < n && q.a[r].Key > q.a[l].Key {
				c = r
			}
			if q.a[c].Key <= item.Key {
				break
			}
			q.a[i] = q.a[c]
			i = c
		}
		q.a[i] = item
	}
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
			last := len(q.a) - 1
			q.a[i] = q.a[last]
			q.a = q.a[:last]
			if i < len(q.a) {
				q.fix(i)
			}
			return true
		}
	}
	return false
}

func (q *MaxQueue) fix(i int) {
	// Sift up then down to restore heap order at i.
	item := q.a[i]
	j := i
	for j > 0 {
		parent := (j - 1) / 2
		if q.a[parent].Key >= item.Key {
			break
		}
		q.a[j] = q.a[parent]
		j = parent
	}
	q.a[j] = item
	n := len(q.a)
	i = j
	item = q.a[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q.a[r].Key > q.a[l].Key {
			c = r
		}
		if q.a[c].Key <= item.Key {
			break
		}
		q.a[i] = q.a[c]
		i = c
	}
	q.a[i] = item
}

// IndexedQueue is a binary min-heap with decrease-key, keyed by vertex id.
// It exists to quantify the cost the paper attributes to decrease-key
// bookkeeping (Figure 7, "PQueue"); the production algorithms use Queue.
type IndexedQueue struct {
	a   []Item
	pos map[int32]int
}

// NewIndexedQueue returns an indexed queue with capacity hint n.
func NewIndexedQueue(n int) *IndexedQueue {
	return &IndexedQueue{a: make([]Item, 0, n), pos: make(map[int32]int, n)}
}

// Len returns the number of entries.
func (q *IndexedQueue) Len() int { return len(q.a) }

// Empty reports whether the queue has no entries.
func (q *IndexedQueue) Empty() bool { return len(q.a) == 0 }

// PushOrDecrease inserts id with key, or lowers its key if already present
// with a larger key. It reports whether the queue changed.
func (q *IndexedQueue) PushOrDecrease(id int32, key int64) bool {
	if i, ok := q.pos[id]; ok {
		if q.a[i].Key <= key {
			return false
		}
		q.a[i].Key = key
		q.up(i)
		return true
	}
	q.a = append(q.a, Item{id, key})
	q.pos[id] = len(q.a) - 1
	q.up(len(q.a) - 1)
	return true
}

// Pop removes and returns the minimum-key item.
func (q *IndexedQueue) Pop() Item {
	top := q.a[0]
	last := len(q.a) - 1
	q.swap(0, last)
	q.a = q.a[:last]
	delete(q.pos, top.ID)
	if last > 0 {
		q.down(0)
	}
	return top
}

func (q *IndexedQueue) swap(i, j int) {
	q.a[i], q.a[j] = q.a[j], q.a[i]
	q.pos[q.a[i].ID] = i
	q.pos[q.a[j].ID] = j
}

func (q *IndexedQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.a[parent].Key <= q.a[i].Key {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *IndexedQueue) down(i int) {
	n := len(q.a)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q.a[r].Key < q.a[l].Key {
			c = r
		}
		if q.a[c].Key >= q.a[i].Key {
			break
		}
		q.swap(i, c)
		i = c
	}
}
