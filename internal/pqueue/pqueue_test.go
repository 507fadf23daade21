package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueOrdering(t *testing.T) {
	q := NewQueue(4)
	keys := []int64{5, 3, 9, 1, 7, 3}
	for i, k := range keys {
		q.Push(int32(i), k)
	}
	var got []int64
	for !q.Empty() {
		got = append(got, q.Pop().Key)
	}
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestQueuePropertySorted(t *testing.T) {
	f := func(keys []int16) bool {
		q := NewQueue(0)
		for i, k := range keys {
			q.Push(int32(i), int64(k))
		}
		prev := int64(-1 << 62)
		for !q.Empty() {
			it := q.Pop()
			if it.Key < prev {
				return false
			}
			prev = it.Key
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueueMinKeyAndReset(t *testing.T) {
	q := NewQueue(0)
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("new queue not empty")
	}
	q.Push(1, 10)
	q.Push(2, 4)
	if q.MinKey() != 4 {
		t.Fatalf("MinKey = %d", q.MinKey())
	}
	q.Reset()
	if !q.Empty() {
		t.Fatal("Reset did not empty queue")
	}
}

func TestMaxQueueOrdering(t *testing.T) {
	q := &MaxQueue{}
	for i, k := range []int64{2, 8, 5, 8, 1} {
		q.Push(int32(i), k)
	}
	var got []int64
	for q.Len() > 0 {
		got = append(got, q.Pop().Key)
	}
	want := []int64{8, 8, 5, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("max pop order %v", got)
		}
	}
}

func TestMaxQueueRemove(t *testing.T) {
	q := &MaxQueue{}
	for i := int32(0); i < 20; i++ {
		q.Push(i, int64(i*7%13))
	}
	if !q.Remove(5) {
		t.Fatal("Remove(5) failed")
	}
	if q.Remove(5) {
		t.Fatal("Remove(5) should fail twice")
	}
	prev := int64(1 << 62)
	for q.Len() > 0 {
		it := q.Pop()
		if it.ID == 5 {
			t.Fatal("removed ID popped")
		}
		if it.Key > prev {
			t.Fatalf("heap order violated after Remove")
		}
		prev = it.Key
	}
}

func TestIndexedQueueDecreaseKey(t *testing.T) {
	q := NewIndexedQueue(3)
	q.PushOrDecrease(1, 10)
	q.PushOrDecrease(2, 20)
	if !q.PushOrDecrease(2, 5) {
		t.Fatal("decrease to 5 should succeed")
	}
	if q.PushOrDecrease(2, 7) {
		t.Fatal("increase to 7 should be a no-op")
	}
	it := q.Pop()
	if it.ID != 2 || it.Key != 5 {
		t.Fatalf("pop = %+v, want {2 5}", it)
	}
	it = q.Pop()
	if it.ID != 1 || it.Key != 10 {
		t.Fatalf("pop = %+v, want {1 10}", it)
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
}

func TestIndexedQueueRandomAgainstQueue(t *testing.T) {
	// With unique ids and monotone insertion, IndexedQueue and a sort give
	// the same order.
	rng := rand.New(rand.NewSource(42))
	keys := make([]int64, 300)
	q := NewIndexedQueue(len(keys))
	for i := range keys {
		keys[i] = int64(rng.Intn(1000))
		q.PushOrDecrease(int32(i), keys[i])
	}
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, want := range sorted {
		if got := q.Pop().Key; got != want {
			t.Fatalf("pop key %d, want %d", got, want)
		}
	}
}
