// Package loadtest holds the Zipf sampler the benchmark harness (bench/)
// draws its skewed query keys from: unlike math/rand's, which requires
// s > 1, it supports the whole exponent range including the classic
// s = 1.0 web-traffic skew.
package loadtest

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. s = 0 is uniform; s = 1 is the canonical heavy-tailed
// request skew. Sampling is inverse-CDF over a precomputed cumulative
// table (O(n) setup, O(log n) per sample), which is what permits any
// s >= 0. Not safe for concurrent use; give each goroutine its own.
type Zipf struct {
	rng *rand.Rand
	cum []float64
}

// NewZipf builds a sampler over n ranks with exponent s using rng.
func NewZipf(rng *rand.Rand, s float64, n int) *Zipf {
	if n < 1 {
		n = 1
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1.0 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{rng: rng, cum: cum}
}

// Sample draws one rank in [0, n).
func (z *Zipf) Sample() int {
	u := z.rng.Float64()
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}

// N returns the rank-space size.
func (z *Zipf) N() int { return len(z.cum) }
