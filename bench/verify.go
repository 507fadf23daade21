package main

import (
	"sort"
	"sync"
	"time"

	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

// answer is one kept query answer, checked against brute force after the
// timed loop so that checking never competes with the measured system.
type answer struct {
	cat     catID
	isRange bool
	q       int32
	k       int32
	radius  int64
	epoch   uint64
	results []knn.Result
}

// model is the harness's own copy of every category's object set, per
// epoch. Mutations go through mutate, which holds the lock across the call
// into the measured system, so the epoch a mutation produced maps to exactly
// one object set and an answer can be checked against the set of the epoch
// it is stamped with.
type model struct {
	g  *graph.Graph
	mu sync.Mutex
	// live is the current set per category; history[c][epoch] every version
	// the measured system has published, starting with the one registered
	// at bring-up (setInitialEpoch).
	live    [numCats]map[int32]struct{}
	history [numCats]map[uint64][]int32
}

func newModel(w *world) *model {
	m := &model{g: w.g}
	for c, verts := range w.cats {
		m.history[c] = map[uint64][]int32{}
		m.live[c] = make(map[int32]struct{}, len(verts))
		for _, v := range verts {
			m.live[c][v] = struct{}{}
		}
	}
	return m
}

func (m *model) snapshot(c catID) []int32 {
	verts := make([]int32, 0, len(m.live[c]))
	for v := range m.live[c] {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	return verts
}

// mutate applies o to the measured system through apply (which returns the
// category's epoch after the mutation) and to the model, and returns the
// latency of apply alone.
func (m *model) mutate(o *op, apply func() (uint64, error)) (time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	epoch, err := apply()
	elapsed := time.Since(start)
	if err != nil {
		return elapsed, err
	}
	for _, v := range o.verts {
		if o.kind == opInsert {
			m.live[o.cat][v] = struct{}{}
		} else {
			delete(m.live[o.cat], v)
		}
	}
	m.history[o.cat][epoch] = m.snapshot(o.cat)
	return elapsed, nil
}

// setInitialEpoch files the category's current set under the epoch the
// measured system reported when the set was registered.
func (m *model) setInitialEpoch(c catID, epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.history[c][epoch] = m.snapshot(c)
}

// objectsAt returns the object set answers of category c stamped with epoch
// must agree with, or nil when the model never saw that epoch.
func (m *model) objectsAt(c catID, epoch uint64) *knn.ObjectSet {
	m.mu.Lock()
	defer m.mu.Unlock()
	verts, ok := m.history[c][epoch]
	if !ok {
		return nil
	}
	return knn.NewObjectSet(m.g, verts)
}

// check reports whether a is the exact answer over the object set of its
// epoch. An answer stamped with an epoch the model never produced is wrong.
func (m *model) check(a *answer) bool {
	objs := m.objectsAt(a.cat, a.epoch)
	if objs == nil {
		return false
	}
	var want []knn.Result
	if a.isRange {
		want = knn.BruteForceRange(m.g, objs, a.q, a.radius)
	} else {
		want = knn.BruteForce(m.g, objs, a.q, int(a.k))
	}
	return knn.SameResults(a.results, want)
}

// countMismatches checks every kept answer, on as many goroutines as the
// measured loop had clients plus one, and returns how many were wrong.
func (m *model) countMismatches(kept []answer, workers int) int {
	var wg sync.WaitGroup
	bad := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(kept); i += workers {
				if !m.check(&kept[i]) {
					bad[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, b := range bad {
		total += b
	}
	return total
}
