//go:build !race

// The race detector's instrumentation allocates, so the allocation gate
// below is built only without -race.

package ch

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/snapio"
)

// TestMappedReadAllocs: opening a hierarchy over mapped bytes allocates no
// per-vertex heap. Every array is a view of the snapshot and the index keeps
// no query scratch (each ch.Searcher owns its own), so the open costs a few
// small objects whatever the network size. TotalAlloc is process-wide, so a
// goroutine of another test can land an allocation inside one open's
// window (5,360 B was read once); the gate takes the least of several
// opens, which a per-vertex allocation would still exceed every time.
func TestMappedReadAllocs(t *testing.T) {
	spec, _ := gen.LadderSpec("NW")
	g := gen.Network(spec)
	built := Build(g)
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var x *Index
	alloc := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		x, err = Read(snapio.NewSource(data, true), g)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	const limit = 4 << 10
	if alloc > limit {
		t.Fatalf("mapped Read of %d vertices allocated %d B, want <= %d", g.NumVertices(), alloc, limit)
	}
	t.Logf("mapped Read of %d vertices allocated %d B", g.NumVertices(), alloc)
	last := int32(g.NumVertices() - 1)
	if got, want := x.NewSearcher().Distance(0, last), built.NewSearcher().Distance(0, last); got != want {
		t.Fatalf("mapped hierarchy answers %d, built one %d", got, want)
	}
}
