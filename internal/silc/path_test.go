package silc

import (
	"testing"
	"time"

	"rnknn/internal/gen"
)

// TestPathCyclicFirstMoves: first moves that are in range but cycle (s and
// a neighbour u naming each other for every target) pass the decoders'
// range checks, so Path must stop on its own after |V| moves. The walk runs
// under a timer so a missing cap fails the test instead of stalling it.
func TestPathCyclicFirstMoves(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "t", Rows: 5, Cols: 5, Seed: 73})
	x := Build(g)
	s := int32(0)
	targets, _ := g.Neighbors(s)
	u := targets[0]
	for _, pair := range [][2]int32{{s, u}, {u, s}} {
		for i := range x.trees[pair[0]] {
			x.trees[pair[0]][i].first = pair[1]
		}
	}
	var tv int32
	for tv == s || tv == u {
		tv++
	}
	done := make(chan []int32, 1)
	go func() { done <- x.Path(s, tv) }()
	select {
	case path := <-done:
		if path != nil {
			t.Fatalf("Path(%d, %d) over cyclic first moves = %v, want nil", s, tv, path)
		}
	case <-time.After(time.Second):
		t.Fatalf("Path(%d, %d) over cyclic first moves did not return within 1s", s, tv)
	}
	if path := x.Path(s, u); len(path) != 2 || path[1] != u {
		t.Fatalf("Path(%d, %d) = %v, want the one edge", s, u, path)
	}
}
