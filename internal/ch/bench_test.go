package ch

import (
	"testing"

	"rnknn/internal/gen"
)

// BenchmarkCHBuild is the in-tree twin of rnbench's build.ch_s: contracting
// NW into a hierarchy.
func BenchmarkCHBuild(b *testing.B) {
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	b.ReportAllocs()
	b.ResetTimer()
	shortcuts := 0
	for i := 0; i < b.N; i++ {
		shortcuts = Build(g).Shortcuts
	}
	b.ReportMetric(float64(shortcuts), "shortcuts/op")
}
