package pqueue

import (
	"math/rand"
	"testing"
)

var benchSink int64

// BenchmarkQueueFillDrain is the in-tree twin of rnbench's
// pqueue.push_pop_ns probe: push 4,096 random keys, pop them all, and
// report ns per push+pop pair.
func BenchmarkQueueFillDrain(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 30)
	}
	q := NewQueue(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id, key := range keys {
			q.Push(int32(id), key)
		}
		for !q.Empty() {
			benchSink += q.Pop().Key
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/pushpop")
}
