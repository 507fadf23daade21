package bitset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	s := New(130)
	for _, i := range []int32{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Get(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Clear(64)
	if s.Get(64) || s.Count() != 7 {
		t.Fatalf("Clear failed: get=%v count=%d", s.Get(64), s.Count())
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestCapacityRounding(t *testing.T) {
	if c := New(1).Capacity(); c != 64 {
		t.Fatalf("Capacity(1) = %d", c)
	}
	if c := New(64).Capacity(); c != 64 {
		t.Fatalf("Capacity(64) = %d", c)
	}
	if c := New(65).Capacity(); c != 128 {
		t.Fatalf("Capacity(65) = %d", c)
	}
}

func TestCountMatchesModelProperty(t *testing.T) {
	f := func(idx []uint16) bool {
		s := New(1 << 16)
		model := map[uint16]bool{}
		for _, i := range idx {
			s.Set(int32(i))
			model[i] = true
		}
		if s.Count() != len(model) {
			return false
		}
		for i := range model {
			if !s.Get(int32(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	s := New(200)
	s.Set(3)
	s.Set(180)
	c := s.Clone()
	c.Clear(3)
	c.Set(99)
	if !s.Get(3) || s.Get(99) {
		t.Fatal("mutating the clone changed the original")
	}
	if c.Get(3) || !c.Get(99) || !c.Get(180) {
		t.Fatal("clone lost or gained the wrong bits")
	}
	if s.Count() != 2 || c.Count() != 2 {
		t.Fatalf("counts: original %d clone %d", s.Count(), c.Count())
	}
}

// TestPagedEditSharesUntouchedPages derives a chain of Paged versions and
// checks each against a plain Set model: every version keeps its own bits,
// and a version shares every page its delta did not touch.
func TestPagedEditSharesUntouchedPages(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(1))
	p := NewPaged(n)
	model := New(n)
	type version struct {
		p     Paged
		model *Set
	}
	var versions []version
	for step := 0; step < 200; step++ {
		var set, clear []int32
		for range 1 + rng.Intn(6) {
			b := int32(rng.Intn(n))
			if model.Get(b) {
				clear = append(clear, b)
			} else {
				set = append(set, b)
			}
		}
		next := p.Edit(set, clear)
		model = model.Clone()
		for _, b := range clear {
			next.Clear(b)
			model.Clear(b)
		}
		for _, b := range set {
			next.Set(b)
			model.Set(b)
		}
		touched := map[int]bool{}
		for _, b := range slices.Concat(set, clear) {
			touched[int(b>>10)] = true
		}
		for pg := range p.dir {
			if shared := next.dir[pg] == p.dir[pg]; shared == touched[pg] {
				t.Fatalf("step %d: page %d shared=%v, touched by the delta=%v", step, pg, shared, touched[pg])
			}
		}
		p = next
		versions = append(versions, version{p, model})
	}
	for i, v := range versions {
		for b := int32(0); b < n; b++ {
			if v.p.Get(b) != v.model.Get(b) {
				t.Fatalf("version %d: bit %d = %v, model %v", i, b, v.p.Get(b), v.model.Get(b))
			}
		}
	}
	if zeroPage != (page{}) {
		t.Fatal("the shared zero page was written")
	}
}

// TestPagedAppendOnesMatchesModel checks the ascending walk against a
// sorted model across a chain of random versions of a set whose size is
// not a multiple of a page: the edge bits 0, 1023, 1024 and n-1 come and
// go, one step clears every bit of a page (a private page left empty,
// which the walk must read as such), and pages never written stay the
// shared zero page, which the walk skips.
func TestPagedAppendOnesMatchesModel(t *testing.T) {
	const n = 5000 // five pages, the last one partial
	edges := []int32{0, 1023, 1024, n - 1}
	rng := rand.New(rand.NewSource(7))
	p, model := NewPaged(n), map[int32]bool{}
	emptied := false
	for step := 0; step < 300; step++ {
		var set, clear []int32
		flip := func(b int32) {
			if model[b] {
				clear = append(clear, b)
			} else {
				set = append(set, b)
			}
		}
		switch {
		case step%50 == 49:
			// Empty page 1 (bits 1024..2047) whole.
			for b := range model {
				if b>>10 == 1 {
					clear = append(clear, b)
				}
			}
			emptied = emptied || len(clear) > 0
		case step%3 == 0:
			flip(edges[rng.Intn(len(edges))])
		default:
			// Pages 0..2 only, so pages 3 and 4 stay the zero page except
			// for the edge bit n-1.
			for range 1 + rng.Intn(6) {
				if b := int32(rng.Intn(3 << 10)); !slices.Contains(set, b) && !slices.Contains(clear, b) {
					flip(b)
				}
			}
		}
		next := p.Edit(set, clear)
		for _, b := range clear {
			next.Clear(b)
			delete(model, b)
		}
		for _, b := range set {
			next.Set(b)
			model[b] = true
		}
		want := make([]int32, 0, len(model))
		for b := range model {
			want = append(want, b)
		}
		slices.Sort(want)
		if got := next.AppendOnes(nil); !slices.Equal(got, want) {
			t.Fatalf("step %d: AppendOnes = %v, model %v", step, got, want)
		}
		if got := next.AppendOnes([]int32{-1}); got[0] != -1 || !slices.Equal(got[1:], want) {
			t.Fatalf("step %d: AppendOnes did not append to dst: %v", step, got)
		}
		p = next
	}
	if !emptied {
		t.Fatal("no step emptied a page")
	}
	if p.dir[3] != &zeroPage {
		t.Fatal("page 3 is not the shared zero page: the walk's skip went untested")
	}
	if got := NewPaged(n).AppendOnes(nil); len(got) != 0 {
		t.Fatalf("an empty set walks to %v", got)
	}
}
