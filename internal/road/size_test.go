package road

import (
	"testing"

	"rnknn/internal/gen"
)

// TestIndexSizeBytesCountsEveryArray pins that SizeBytes covers every int32
// array the index holds, the Route Overlay included (it once left roOff,
// roRnet and roBi out, 14.5 % of the index on NW).
func TestIndexSizeBytesCountsEveryArray(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 20, Cols: 20, Seed: 3})
	x := Build(g)
	cells := len(x.shorts) + len(x.matOff) + len(x.roOff) + len(x.roRnet) + len(x.roBi)
	for _, b := range x.borders {
		cells += len(b)
	}
	if got := x.SizeBytes(); got < 4*cells {
		t.Fatalf("SizeBytes = %d, the index holds %d int32 cells (%d bytes)", got, cells, 4*cells)
	}
}
