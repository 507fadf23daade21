package planner

import (
	"sync"
	"testing"
	"time"

	"rnknn/internal/core"
)

// TestStaticRegimeTable pins the paper-seeded crossovers: INE at high
// density, the fast-oracle IER family at low density and large k, with
// G-tree beating INE at low density when no fast oracle is enabled. The
// checked-in DefaultModel is fitted to one machine's measurements and may
// legitimately place crossovers elsewhere, so the test pins the planner to
// the seed model — the paper's Table 5 priors — explicitly.
func TestStaticRegimeTable(t *testing.T) {
	p := New()
	p.SetModel(nil) // nil reverts to the hand-seeded paper priors
	const n = 100000
	cases := []struct {
		name    string
		enabled []core.MethodKind
		f       Features
		want    core.MethodKind
	}{
		{"high density small k -> INE",
			[]core.MethodKind{core.INE, core.IERPHL, core.Gtree},
			Features{K: 5, NumObjects: n / 10, NumVertices: n}, core.INE},
		{"low density large k -> IER-PHL",
			[]core.MethodKind{core.INE, core.IERPHL, core.Gtree},
			Features{K: 100, NumObjects: n / 10000, NumVertices: n}, core.IERPHL},
		{"low density no fast oracle -> Gtree over INE",
			[]core.MethodKind{core.INE, core.Gtree},
			Features{K: 10, NumObjects: n / 10000, NumVertices: n}, core.Gtree},
		{"high density with only IER variants -> cheapest oracle",
			[]core.MethodKind{core.IERCH, core.IERPHL},
			Features{K: 10, NumObjects: n / 10, NumVertices: n}, core.IERPHL},
	}
	for _, c := range cases {
		got := p.Choose(c.enabled, c.f)
		if got.Kind != c.want {
			t.Errorf("%s: chose %v (%s), want %v", c.name, got.Kind, got.Reason(), c.want)
		}
		if got.Observed {
			t.Errorf("%s: fresh planner reported an observed cost", c.name)
		}
		if got.Reason() == "" {
			t.Errorf("%s: empty reason", c.name)
		}
	}
}

// TestObservedLatencyOverridesModel feeds latencies that contradict the
// static model and checks the EWMA wins within its regime bucket — and
// only there.
func TestObservedLatencyOverridesModel(t *testing.T) {
	p := New()
	enabled := []core.MethodKind{core.INE, core.Gtree}
	// High-density regime: the static model picks INE.
	dense := Features{K: 4, NumObjects: 5000, NumVertices: 50000}
	if got := p.Choose(enabled, dense); got.Kind != core.INE {
		t.Fatalf("precondition: static choice = %v, want INE", got.Kind)
	}
	// Observe INE being pathologically slow and Gtree fast, in this regime.
	for i := 0; i < 20; i++ {
		p.Observe(core.INE, dense, 80*time.Millisecond)
		p.Observe(core.Gtree, dense, 100*time.Microsecond)
	}
	got := p.Choose(enabled, dense)
	if got.Kind != core.Gtree || !got.Observed {
		t.Fatalf("after observations: chose %v (observed=%v), want Gtree from EWMA", got.Kind, got.Observed)
	}
	// A different (k, density) bucket is untouched: static model again.
	sparse := Features{K: 512, NumObjects: 5, NumVertices: 50000}
	if got := p.Choose(enabled, sparse); got.Observed {
		t.Fatalf("sparse regime should be unobserved, got %s", got.Reason())
	}
}

// TestEWMAConverges checks the smoothing actually tracks a shifted latency
// rather than sticking at the first sample.
func TestEWMAConverges(t *testing.T) {
	p := New()
	f := Features{K: 8, NumObjects: 100, NumVertices: 10000}
	p.Observe(core.Gtree, f, 10*time.Millisecond)
	for i := 0; i < 200; i++ {
		p.Observe(core.Gtree, f, 1*time.Millisecond)
	}
	got := time.Duration(p.observed(core.Gtree, f))
	if got > 2*time.Millisecond || got < 500*time.Microsecond {
		t.Fatalf("EWMA after shift = %v, want ~1ms", got)
	}
}

func TestBuckets(t *testing.T) {
	if kBucket(1) != 0 || kBucket(2) != 1 || kBucket(640) >= numKBuckets {
		t.Fatalf("k buckets: %d %d %d", kBucket(1), kBucket(2), kBucket(640))
	}
	if kBucket(1<<20) != numKBuckets-1 {
		t.Fatalf("huge k must clamp, got %d", kBucket(1<<20))
	}
	if dBucket(0.5) != 0 || dBucket(0.01) != 1 || dBucket(1e-9) != numDBuckets-1 {
		t.Fatalf("density buckets: %d %d %d", dBucket(0.5), dBucket(0.01), dBucket(1e-9))
	}
	f := Features{K: 3, NumObjects: 0, NumVertices: 100}
	if d := f.Density(); d <= 0 {
		t.Fatalf("empty category density must clamp positive, got %g", d)
	}
}

// TestConcurrentObserveChoose is a race-detector exercise: Observe and
// Choose from many goroutines must be data-race free.
func TestConcurrentObserveChoose(t *testing.T) {
	p := New()
	enabled := []core.MethodKind{core.INE, core.IERPHL, core.Gtree}
	f := Features{K: 10, NumObjects: 50, NumVertices: 20000}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.Observe(enabled[i%len(enabled)], f, time.Duration(i)*time.Microsecond)
				_ = p.Choose(enabled, f)
			}
		}(w)
	}
	wg.Wait()
}

// TestNoteDensityShiftReRegimes drives the object-churn hook: a density
// shift across a decade boundary must forget the crossed-into regime's
// observations (falling back to the static model), while a within-bucket
// shift must leave them alone.
func TestNoteDensityShiftReRegimes(t *testing.T) {
	p := New()
	enabled := []core.MethodKind{core.INE, core.Gtree}
	nv := 100000
	sparse := Features{K: 10, NumObjects: 100, NumVertices: nv}  // density 1e-3
	dense := Features{K: 10, NumObjects: 20000, NumVertices: nv} // density 0.2

	// Train the sparse regime with a fake observation that makes INE look
	// unrealistically fast there (statically Gtree wins at this density).
	for i := 0; i < 50; i++ {
		p.Observe(core.INE, sparse, 1*time.Microsecond)
	}
	if c := p.Choose(enabled, sparse); c.Kind != core.INE || !c.Observed {
		t.Fatalf("trained choice = %+v, want observed INE", c)
	}

	// A within-bucket shift (100 -> 150 objects stays in the 1e-3 decade)
	// must not invalidate anything.
	if p.NoteDensityShift(sparse, Features{K: 10, NumObjects: 150, NumVertices: nv}) {
		t.Fatal("within-bucket shift reported a regime crossing")
	}
	if c := p.Choose(enabled, sparse); !c.Observed {
		t.Fatal("within-bucket shift dropped the regime's observations")
	}

	// Churn the set dense -> sparse: crossing into the sparse bucket must
	// forget its stale EWMAs, so the static model (Gtree here) takes over.
	if !p.NoteDensityShift(dense, sparse) {
		t.Fatal("decade crossing not reported")
	}
	c := p.Choose(enabled, sparse)
	if c.Observed {
		t.Fatalf("crossed-into regime still using stale EWMA: %+v", c)
	}
	if c.Kind != core.Gtree {
		t.Fatalf("static model at density 1e-3 chose %v, want Gtree", c.Kind)
	}
}

// TestSetModelResetsNeighborDecades drives the model-reload staleness rule:
// after SetModel swaps the static prior, the next density-decade crossing
// must forget not just the crossed-into decade but its neighbors too —
// their EWMAs were trained against the old prior's crossovers. Crossings
// with no intervening reload keep resetting only the crossed decade.
func TestSetModelResetsNeighborDecades(t *testing.T) {
	p := New()
	enabled := []core.MethodKind{core.INE, core.Gtree}
	nv := 100000
	// Three adjacent density decades: 1e-2, 1e-3, 1e-4.
	mid := Features{K: 10, NumObjects: 100, NumVertices: nv}
	up := Features{K: 10, NumObjects: 1000, NumVertices: nv}
	down := Features{K: 10, NumObjects: 10, NumVertices: nv}
	for _, f := range []Features{mid, up, down} {
		for i := 0; i < 50; i++ {
			p.Observe(core.INE, f, 1*time.Microsecond)
		}
	}

	// Without a model reload, crossing into mid's decade keeps the
	// neighbors' observations.
	if !p.NoteDensityShift(Features{K: 10, NumObjects: nv / 5, NumVertices: nv}, mid) {
		t.Fatal("decade crossing not reported")
	}
	if c := p.Choose(enabled, up); !c.Observed {
		t.Fatal("plain crossing dropped a neighboring decade's observations")
	}
	if c := p.Choose(enabled, down); !c.Observed {
		t.Fatal("plain crossing dropped a neighboring decade's observations")
	}

	// Retrain mid, reload the model, cross again: now the neighbors must be
	// forgotten too.
	for i := 0; i < 50; i++ {
		p.Observe(core.INE, mid, 1*time.Microsecond)
	}
	m := SeedModel()
	m.Fitted = true
	m.Provenance = "test fit"
	p.SetModel(m)
	if !p.NoteDensityShift(Features{K: 10, NumObjects: nv / 5, NumVertices: nv}, mid) {
		t.Fatal("decade crossing not reported")
	}
	for _, f := range []Features{mid, up, down} {
		if c := p.Choose(enabled, f); c.Observed {
			t.Fatalf("post-reload crossing kept stale EWMA at density %.2g: %s", f.Density(), c.Reason())
		}
	}

	// The staleness flag is one-shot: the next crossing is back to the
	// narrow reset.
	for i := 0; i < 50; i++ {
		p.Observe(core.INE, up, 1*time.Microsecond)
	}
	if !p.NoteDensityShift(mid, down) {
		t.Fatal("decade crossing not reported")
	}
	if c := p.Choose(enabled, up); !c.Observed {
		t.Fatal("second crossing after reload was not narrow again")
	}
}

// TestChooseBatch pins the shared-expansion decision surface: expensive
// single queries (sparse regime) share, cheap ones (dense regime) fan out,
// and a group of one never shares.
func TestChooseBatch(t *testing.T) {
	p := New()
	nv := 110000
	sparse := Features{K: 10, NumObjects: 110, NumVertices: nv}  // ~1e-3: slow INE
	dense := Features{K: 10, NumObjects: 11000, NumVertices: nv} // 0.1: fast INE

	if bc := p.ChooseBatch(core.INE, sparse, 64); !bc.Shared {
		t.Fatalf("sparse 64-group must share, got %s", bc.Reason())
	} else if bc.GroupCost <= 0 || bc.SingleCost <= 0 || bc.Reason() == "" {
		t.Fatalf("incomplete shared choice: %+v", bc)
	}
	if bc := p.ChooseBatch(core.INE, dense, 64); bc.Shared {
		t.Fatalf("dense 64-group must fan out, got %s", bc.Reason())
	}
	if bc := p.ChooseBatch(core.INE, sparse, 1); bc.Shared {
		t.Fatalf("singleton group must fan out, got %s", bc.Reason())
	}

	// An observed EWMA overrides the model's single-query estimate: train
	// the dense cell to look pathologically slow and sharing flips on.
	for i := 0; i < 50; i++ {
		p.Observe(core.INE, dense, 5*time.Millisecond)
	}
	if bc := p.ChooseBatch(core.INE, dense, 64); !bc.Shared {
		t.Fatalf("observed-slow dense group must share, got %s", bc.Reason())
	}
}
