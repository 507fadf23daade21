package pqueue

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"rnknn/internal/graph"
)

// Opcodes of FuzzQueueMatchesSort's byte stream: the low three bits of an
// op byte pick the operation, and pushes of a variable key read it from the
// next byte.
const (
	opPushSmall = iota // key = next byte
	opPushWide         // key = next byte << 40: far apart, still in domain
	opPushNeg          // key = -(next byte) - 1 (CH priorities are signed)
	opPushZero
	opPushInf // key = graph.Inf, the largest distance any caller pushes
	opPop
	opPopAll
	opReset
)

// fill returns the ops that push keys (one byte each, so 0..255) and then
// drain the queue.
func fill(keys ...byte) []byte {
	var ops []byte
	for _, k := range keys {
		ops = append(ops, opPushSmall, k)
	}
	return append(ops, opPopAll)
}

// FuzzQueueMatchesSort drives Queue and a sorted-slice model with the same
// push/pop/reset stream: every Pop must return the model's minimum key and
// an (ID, Key) pair that was pushed and not yet popped, and Len, Empty and
// MinKey must agree throughout. Ties may pop in any order.
func FuzzQueueMatchesSort(f *testing.F) {
	// Every heap size whose last group of children is empty, partial or
	// full: 0-9, then 4k-1, 4k, 4k+1 around the next two level boundaries
	// (21 = 1+4+16, 85 = 21+64).
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 19, 20, 21, 22, 83, 84, 85, 86} {
		asc, desc := make([]byte, n), make([]byte, n)
		for i := range asc {
			asc[i], desc[i] = byte(i), byte(n-i)
		}
		f.Add(fill(asc...))
		f.Add(fill(desc...))
		f.Add(fill(make([]byte, n)...)) // all keys equal
	}
	f.Add([]byte{opPushZero, opPushInf, opPushNeg, 0, opPushNeg, 255, opPushWide, 255, opPushInf, opPushZero, opPopAll})
	f.Add([]byte{opPushSmall, 3, opPushSmall, 1, opPop, opReset, opPop, opPushNeg, 7, opPushSmall, 1, opPopAll})
	f.Add(bytes.Repeat([]byte{opPushSmall, 9, opPushWide, 2, opPop, opPushNeg, 4}, 40))

	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue
		var model []Item // sorted by Key
		nextID := int32(0)
		push := func(key int64) {
			q.Push(nextID, key)
			i := sort.Search(len(model), func(i int) bool { return model[i].Key > key })
			model = append(model, Item{})
			copy(model[i+1:], model[i:])
			model[i] = Item{nextID, key}
			nextID++
		}
		pop := func() {
			if len(model) == 0 {
				return // Pop on an empty queue panics by contract
			}
			got := q.Pop()
			if got.Key != model[0].Key {
				t.Fatalf("Pop = %+v, model minimum key %d", got, model[0].Key)
			}
			for i := 0; ; i++ {
				if i == len(model) || model[i].Key != got.Key {
					t.Fatalf("Pop = %+v: no such live entry", got)
				}
				if model[i].ID == got.ID {
					model = append(model[:i], model[i+1:]...)
					break
				}
			}
		}
		arg := func() int64 {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int64(b)
		}
		for len(ops) > 0 {
			op := ops[0] & 7
			ops = ops[1:]
			switch op {
			case opPushSmall:
				push(arg())
			case opPushWide:
				push(arg() << 40)
			case opPushNeg:
				push(-arg() - 1)
			case opPushZero:
				push(0)
			case opPushInf:
				push(int64(graph.Inf))
			case opPop:
				pop()
			case opPopAll:
				for len(model) > 0 {
					pop()
				}
			case opReset:
				q.Reset()
				model = model[:0]
			}
			if q.Len() != len(model) || q.Empty() != (len(model) == 0) {
				t.Fatalf("Len = %d, Empty = %v; model holds %d", q.Len(), q.Empty(), len(model))
			}
			if len(model) > 0 && q.MinKey() != model[0].Key {
				t.Fatalf("MinKey = %d, model minimum %d", q.MinKey(), model[0].Key)
			}
		}
	})
}

// Opcodes of FuzzIndexedQueueMatchesModel: each names an id in the next
// byte; the pushes read their key from the byte after it.
const (
	opOfferSmall = iota // key = next byte
	opOfferWide         // key = next byte << 40
	opOfferNeg          // key = -(next byte) - 1
	opOfferInf          // key = graph.Inf
	opDecrease          // key = the id's queued key - 1 - next byte, or next byte if not queued
	opIPop
	opIPopAll
	opIReset
)

// FuzzIndexedQueueMatchesModel drives IndexedQueue and a map model of the
// queued ids with the same stream of PushOrDecrease, Pop and Reset calls
// over 256 ids: PushOrDecrease must report a change exactly when the id was
// absent or queued with a larger key, every Pop must return a queued id
// with the model's minimum key, and Len and Empty must agree throughout.
// Ties may pop in any order.
func FuzzIndexedQueueMatchesModel(f *testing.F) {
	for _, n := range []int{0, 1, 2, 5, 9, 21, 22, 85, 86} {
		var ops []byte
		for i := range n {
			ops = append(ops, opOfferSmall, byte(i), byte(n-i))
		}
		for i := range n {
			ops = append(ops, opDecrease, byte(i), byte(i%3))
		}
		f.Add(append(ops, opIPopAll))
	}
	f.Add([]byte{opOfferInf, 1, opOfferNeg, 2, 9, opOfferWide, 3, 255, opDecrease, 1, 0, opIPop, opOfferSmall, 1, 4, opIReset, opOfferSmall, 1, 4, opIPopAll})
	f.Add(bytes.Repeat([]byte{opOfferSmall, 7, 200, opDecrease, 7, 1, opIPop, opOfferWide, 9, 2, opDecrease, 9, 0}, 30))

	f.Fuzz(func(t *testing.T, ops []byte) {
		q := NewIndexedQueue(256)
		model := map[int32]int64{}
		arg := func() int64 {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int64(b)
		}
		offer := func(id int32, key int64) {
			cur, queued := model[id]
			want := !queued || key < cur
			if got := q.PushOrDecrease(id, key); got != want {
				t.Fatalf("PushOrDecrease(%d, %d) = %v; model key %d, queued %v", id, key, got, cur, queued)
			}
			if want {
				model[id] = key
			}
		}
		pop := func() {
			if len(model) == 0 {
				return // Pop on an empty queue panics by contract
			}
			got := q.Pop()
			key, queued := model[got.ID]
			if !queued || key != got.Key {
				t.Fatalf("Pop = %+v; model has key %d, queued %v", got, key, queued)
			}
			for id, k := range model {
				if k < got.Key {
					t.Fatalf("Pop = %+v while id %d is queued at %d", got, id, k)
				}
			}
			delete(model, got.ID)
		}
		for len(ops) > 0 {
			op := ops[0] & 7
			ops = ops[1:]
			switch op {
			case opOfferSmall:
				id := int32(arg())
				offer(id, arg())
			case opOfferWide:
				id := int32(arg())
				offer(id, arg()<<40)
			case opOfferNeg:
				id := int32(arg())
				offer(id, -arg()-1)
			case opOfferInf:
				offer(int32(arg()), int64(graph.Inf))
			case opDecrease:
				id := int32(arg())
				if cur, queued := model[id]; queued {
					offer(id, cur-1-arg())
				} else {
					offer(id, arg())
				}
			case opIPop:
				pop()
			case opIPopAll:
				for len(model) > 0 {
					pop()
				}
			case opIReset:
				q.Reset()
				clear(model)
			}
			if q.Len() != len(model) || q.Empty() != (len(model) == 0) {
				t.Fatalf("Len = %d, Empty = %v; model holds %d", q.Len(), q.Empty(), len(model))
			}
		}
	})
}

// Opcodes of FuzzMaxQueueMatchesModel: pushes and ReplaceTop read their key
// from the next byte, Remove its id.
const (
	opMaxPushSmall = iota // key = next byte
	opMaxPushWide         // key = next byte << 40
	opMaxPushNeg          // key = -(next byte) - 1
	opMaxPushInf          // key = graph.Inf
	opMaxPop
	opMaxReplaceTop // key = next byte
	opMaxRemove     // id = next byte
	opMaxReset
)

// FuzzMaxQueueMatchesModel drives MaxQueue and a sorted-slice model with the
// same Push, Pop, ReplaceTop, Remove and Reset stream: Pop and ReplaceTop
// must take an entry with the model's maximum key that was pushed and not
// yet taken, Remove must report whether the id was live, and Len and
// MaxKey must agree throughout. Ties may pop in any order.
func FuzzMaxQueueMatchesModel(f *testing.F) {
	// Bounded top-k traffic, as IER and the shared INE group run it: fill to
	// k, then replace the top with each smaller key; heap sizes around the
	// binary levels (7 = 1+2+4, 15).
	for _, k := range []int{1, 2, 3, 6, 7, 8, 15, 16} {
		var ops []byte
		for i := range k {
			ops = append(ops, opMaxPushSmall, byte(200-i*7))
		}
		for i := range 2 * k {
			ops = append(ops, opMaxReplaceTop, byte(150-i*3))
		}
		for range k {
			ops = append(ops, opMaxPop)
		}
		f.Add(ops)
	}
	f.Add([]byte{opMaxPushSmall, 5, opMaxPushSmall, 5, opMaxPushInf, opMaxPushNeg, 0, opMaxRemove, 1, opMaxRemove, 1, opMaxPop, opMaxReplaceTop, 5, opMaxPop, opMaxPop})
	f.Add(bytes.Repeat([]byte{opMaxPushWide, 3, opMaxPushSmall, 9, opMaxRemove, 0, opMaxReplaceTop, 1, opMaxPushNeg, 4, opMaxPop}, 30))

	f.Fuzz(func(t *testing.T, ops []byte) {
		var q MaxQueue
		var model []Item // sorted by Key
		nextID := int32(0)
		add := func(it Item) {
			i := sort.Search(len(model), func(i int) bool { return model[i].Key > it.Key })
			model = slices.Insert(model, i, it)
		}
		// take removes got from the model, failing unless it is a live
		// entry with the maximum key.
		take := func(op string, got Item) {
			if top := model[len(model)-1].Key; got.Key != top {
				t.Fatalf("%s = %+v, model maximum key %d", op, got, top)
			}
			i := slices.Index(model, got)
			if i < 0 {
				t.Fatalf("%s = %+v: no such live entry", op, got)
			}
			model = slices.Delete(model, i, i+1)
		}
		arg := func() int64 {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int64(b)
		}
		push := func(key int64) {
			q.Push(nextID, key)
			add(Item{nextID, key})
			nextID++
		}
		for len(ops) > 0 {
			op := ops[0] & 7
			ops = ops[1:]
			switch op {
			case opMaxPushSmall:
				push(arg())
			case opMaxPushWide:
				push(arg() << 40)
			case opMaxPushNeg:
				push(-arg() - 1)
			case opMaxPushInf:
				push(int64(graph.Inf))
			case opMaxPop:
				if len(model) > 0 { // Pop on an empty queue panics by contract
					take("Pop", q.Pop())
				}
			case opMaxReplaceTop:
				key := arg()
				if len(model) > 0 { // as Pop
					take("ReplaceTop", q.ReplaceTop(nextID, key))
					add(Item{nextID, key})
					nextID++
				}
			case opMaxRemove:
				id := int32(arg())
				i := slices.IndexFunc(model, func(it Item) bool { return it.ID == id })
				if got := q.Remove(id); got != (i >= 0) {
					t.Fatalf("Remove(%d) = %v; model holds it: %v", id, got, i >= 0)
				}
				if i >= 0 {
					model = slices.Delete(model, i, i+1)
				}
			case opMaxReset:
				q.Reset()
				model = model[:0]
			}
			if q.Len() != len(model) {
				t.Fatalf("Len = %d; model holds %d", q.Len(), len(model))
			}
			if len(model) > 0 && q.MaxKey() != model[len(model)-1].Key {
				t.Fatalf("MaxKey = %d, model maximum %d", q.MaxKey(), model[len(model)-1].Key)
			}
		}
	})
}
