package scratch

import (
	"testing"

	"rnknn/internal/graph"
)

func TestDists(t *testing.T) {
	d := NewDists(8)
	// Usable before any Reset: the zero stamp must not read as live.
	if got := d.Get(3); got != graph.Inf {
		t.Fatalf("fresh Get = %d, want Inf", got)
	}
	d.Set(3, 42)
	if got := d.Get(3); got != 42 {
		t.Fatalf("Get after Set = %d, want 42", got)
	}
	d.Reset()
	if got := d.Get(3); got != graph.Inf {
		t.Fatalf("Get after Reset = %d, want Inf", got)
	}
}

func TestSet(t *testing.T) {
	s := NewSet(8)
	if s.Contains(5) {
		t.Fatal("fresh set contains 5")
	}
	s.Add(5)
	if !s.Contains(5) {
		t.Fatal("set lost 5")
	}
	s.Remove(5)
	if s.Contains(5) {
		t.Fatal("Remove left 5 behind")
	}
	s.Add(5)
	s.Reset()
	if s.Contains(5) {
		t.Fatal("Reset left 5 behind")
	}
}

func TestMap32(t *testing.T) {
	m := NewMap32(8)
	if _, ok := m.Get(2); ok {
		t.Fatal("fresh map has key 2")
	}
	m.Put(2, 7)
	if v, ok := m.Get(2); !ok || v != 7 {
		t.Fatalf("Get(2) = %d, %v; want 7, true", v, ok)
	}
	m.Put(2, 9)
	if v, _ := m.Get(2); v != 9 {
		t.Fatalf("overwrite: Get(2) = %d, want 9", v)
	}
	m.Reset()
	if _, ok := m.Get(2); ok {
		t.Fatal("Reset left key 2 behind")
	}
}

// TestGenerationWrap drives the generation counter across its 32-bit wrap
// and checks that stale stamps from before the wrap are not misread as
// live entries afterwards.
func TestGenerationWrap(t *testing.T) {
	s := NewSet(4)
	s.Add(1)
	s.cur = ^uint32(0) // next Reset wraps
	// Slot 2's stamp happens to equal the post-wrap generation (1): the
	// wrap-time clear must erase it.
	s.stamp[2] = 1
	s.Reset()
	if s.cur != 1 {
		t.Fatalf("post-wrap generation = %d, want 1", s.cur)
	}
	if s.Contains(1) || s.Contains(2) {
		t.Fatal("stale pre-wrap stamps survived the wrap")
	}

	m := NewMap32(4)
	m.Put(0, 1)
	m.cur = ^uint32(0)
	m.a[3].stamp = 1
	m.Reset()
	if _, ok := m.Get(0); ok {
		t.Fatal("stale map entry survived the wrap")
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("colliding stamp survived the wrap")
	}
}

// TestResetIsAllocationFree pins the O(1)-reset contract: steady-state
// Reset plus use performs no heap allocations.
func TestResetIsAllocationFree(t *testing.T) {
	d := NewDists(64)
	s := NewSet(64)
	m := NewMap32(64)
	allocs := testing.AllocsPerRun(100, func() {
		d.Reset()
		d.Set(7, 1)
		s.Reset()
		s.Add(7)
		m.Reset()
		m.Put(7, 7)
	})
	if allocs != 0 {
		t.Fatalf("steady-state reset allocates %v allocs/op, want 0", allocs)
	}
}

// TestDistsGenerationWrap drives the label array's generation counter
// through the uint32 wrap: labels written in the last generations before it
// — including one whose stamp equals the first generation after it — must
// all read as absent afterwards, and Lower must treat them as absent.
func TestDistsGenerationWrap(t *testing.T) {
	d := NewDists(4)
	d.Set(3, 9) // stamped with generation 1, the first one after the wrap
	d.cur = ^uint32(0) - 1
	for gen := 0; gen < 4; gen++ { // generations 2^32-2, 2^32-1, 1, 2
		for v := int32(0); v < 4; v++ {
			if got := d.Get(v); got != graph.Inf {
				t.Fatalf("generation %d: slot %d reads %d before any Set", d.cur, v, got)
			}
		}
		if !d.Lower(0, 7) || d.Lower(0, 7) || d.Lower(0, 8) || !d.Lower(0, 6) {
			t.Fatalf("generation %d: Lower did not behave as a strict minimum", d.cur)
		}
		d.Set(1, 5)
		if d.Get(0) != 6 || d.Get(1) != 5 {
			t.Fatalf("generation %d: Get = %d, %d; want 6, 5", d.cur, d.Get(0), d.Get(1))
		}
		d.Reset()
	}
	if d.cur != 3 {
		t.Fatalf("generation after the wrap = %d, want 3 (zero is skipped)", d.cur)
	}
}
