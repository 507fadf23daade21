package loadtest

import (
	"math"
	"math/rand"
	"testing"
)

// TestZipfDistribution checks the sampler's empirical frequencies against
// the analytic law across the exponent range — including s = 1.0,
// which math/rand's Zipf cannot generate.
func TestZipfDistribution(t *testing.T) {
	const n, draws = 64, 200000
	for _, s := range []float64{0, 0.5, 1.0, 1.5} {
		z := NewZipf(rand.New(rand.NewSource(1)), s, n)
		if z.N() != n {
			t.Fatalf("s=%g: N=%d, want %d", s, z.N(), n)
		}
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[z.Sample()]++
		}
		total := 0.0
		for i := 0; i < n; i++ {
			total += 1.0 / math.Pow(float64(i+1), s)
		}
		// The head ranks have enough mass for a tight relative check.
		for rank := 0; rank < 4; rank++ {
			want := 1.0 / math.Pow(float64(rank+1), s) / total
			got := float64(counts[rank]) / draws
			if math.Abs(got-want) > 0.15*want+0.002 {
				t.Errorf("s=%g rank %d: frequency %.4f, want %.4f", s, rank, got, want)
			}
		}
		// Skew ordering: rank 0 must dominate the tail for s > 0.
		if s > 0 && counts[0] <= counts[n-1] {
			t.Errorf("s=%g: rank 0 count %d not above rank %d count %d", s, counts[0], n-1, counts[n-1])
		}
	}
}

// TestZipfDegenerate covers the n <= 1 guard.
func TestZipfDegenerate(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 1.0, 0)
	for i := 0; i < 10; i++ {
		if got := z.Sample(); got != 0 {
			t.Fatalf("Sample()=%d on single-rank sampler", got)
		}
	}
}
