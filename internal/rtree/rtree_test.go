package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rnknn/internal/geo"
)

func randomPoints(n int, seed int64) ([]int32, []geo.Point) {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int32, n)
	pts := make([]geo.Point, n)
	for i := range ids {
		ids[i] = int32(i)
		pts[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	return ids, pts
}

func bruteKNN(pts []geo.Point, q geo.Point, k int) []float64 {
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = q.Dist(p)
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

func TestKNearestMatchesBruteForce(t *testing.T) {
	ids, pts := randomPoints(500, 1)
	tr := New(ids, pts, 8)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		q := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		k := 1 + rng.Intn(20)
		got := tr.KNearest(q, k)
		want := bruteKNN(pts, q, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d results", k, len(got))
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i]) > 1e-9 {
				t.Fatalf("k=%d i=%d: got %v want %v", k, i, got[i].Dist, want[i])
			}
		}
	}
}

func TestScannerMonotoneExhaustive(t *testing.T) {
	ids, pts := randomPoints(300, 3)
	tr := New(ids, pts, 0)
	s := tr.NewScan(geo.Point{X: 500, Y: 500})
	prev := -1.0
	count := 0
	seen := map[int32]bool{}
	for {
		n, ok := s.Next()
		if !ok {
			break
		}
		if n.Dist < prev {
			t.Fatal("scan distances not monotone")
		}
		prev = n.Dist
		if seen[n.ID] {
			t.Fatalf("duplicate id %d", n.ID)
		}
		seen[n.ID] = true
		count++
	}
	if count != 300 {
		t.Fatalf("scan returned %d of 300", count)
	}
}

func TestScannerSuspendResume(t *testing.T) {
	ids, pts := randomPoints(200, 4)
	tr := New(ids, pts, 0)
	q := geo.Point{X: 10, Y: 10}
	s := tr.NewScan(q)
	var first []Neighbor
	for i := 0; i < 5; i++ {
		n, _ := s.Next()
		first = append(first, n)
	}
	// PeekDist lower-bounds the next result.
	peek := s.PeekDist()
	n6, _ := s.Next()
	if n6.Dist+1e-12 < peek {
		t.Fatalf("PeekDist %v above next %v", peek, n6.Dist)
	}
	// All returned so far must equal a fresh scan's prefix.
	fresh := tr.KNearest(q, 6)
	for i := range first {
		if fresh[i].Dist != first[i].Dist {
			t.Fatal("suspended scan diverged from fresh scan")
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	tr := New(nil, nil, 0)
	if tr.Len() != 0 {
		t.Fatal("empty tree Len != 0")
	}
	if got := tr.KNearest(geo.Point{}, 3); len(got) != 0 {
		t.Fatal("empty tree returned results")
	}
	tr1 := New([]int32{42}, []geo.Point{{X: 1, Y: 2}}, 0)
	got := tr1.KNearest(geo.Point{X: 1, Y: 2}, 5)
	if len(got) != 1 || got[0].ID != 42 || got[0].Dist != 0 {
		t.Fatalf("single tree: %+v", got)
	}
}

func TestSizeBytesGrows(t *testing.T) {
	ids, pts := randomPoints(1000, 5)
	big := New(ids, pts, 0)
	small := New(ids[:10], pts[:10], 0)
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatal("SizeBytes not monotone in tree size")
	}
}

func TestFirstNeighborNearestProperty(t *testing.T) {
	f := func(seed int64, qx, qy uint16) bool {
		n := 50 + int(seed%100+100)%100
		ids, pts := randomPoints(n, seed)
		tr := New(ids, pts, 4)
		q := geo.Point{X: float64(qx % 1000), Y: float64(qy % 1000)}
		got := tr.KNearest(q, 1)
		want := bruteKNN(pts, q, 1)
		return len(got) == 1 && math.Abs(got[0].Dist-want[0]) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// --- dynamic-update tests ---

// TestInsertDeleteMatchesBruteForce churns a tree through random inserts and
// deletes, checking KNearest against brute force over the live set after
// every step (including across degradation-triggered STR rebuilds).
func TestInsertDeleteMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids, pts := randomPoints(200, 8)
	tr := New(ids[:100], pts[:100], 8)
	live := map[int32]geo.Point{}
	for i := 0; i < 100; i++ {
		live[ids[i]] = pts[i]
	}
	next := 100
	for step := 0; step < 500; step++ {
		canInsert := next < 200
		if canInsert && (len(live) == 0 || rng.Intn(2) == 0) {
			tr.Insert(ids[next], pts[next])
			live[ids[next]] = pts[next]
			next++
		} else if len(live) > 0 {
			// Delete a random live entry.
			var victim int32 = -1
			for id := range live {
				victim = id
				break
			}
			if !tr.Delete(victim, live[victim]) {
				t.Fatalf("step %d: Delete(%d) reported absent", step, victim)
			}
			delete(live, victim)
		} else {
			break // inserts exhausted and tree drained
		}
		if tr.Len() != len(live) {
			t.Fatalf("step %d: Len %d != live %d", step, tr.Len(), len(live))
		}
		if step%7 != 0 {
			continue
		}
		q := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		k := 1 + rng.Intn(8)
		got := tr.KNearest(q, k)
		var ds []float64
		for _, p := range live {
			ds = append(ds, q.Dist(p))
		}
		sort.Float64s(ds)
		if k > len(ds) {
			k = len(ds)
		}
		if len(got) != k {
			t.Fatalf("step %d: got %d results want %d", step, len(got), k)
		}
		for i := range got {
			if math.Abs(got[i].Dist-ds[i]) > 1e-9 {
				t.Fatalf("step %d k=%d i=%d: got %v want %v", step, k, i, got[i].Dist, ds[i])
			}
		}
	}
}

// TestDeleteAbsent covers the miss paths: unknown id, wrong point, empty
// tree.
func TestDeleteAbsent(t *testing.T) {
	ids, pts := randomPoints(50, 9)
	tr := New(ids, pts, 4)
	if tr.Delete(999, geo.Point{X: 1, Y: 1}) {
		t.Fatal("Delete of unknown id reported true")
	}
	if tr.Len() != 50 {
		t.Fatal("failed Delete changed Len")
	}
	empty := New(nil, nil, 0)
	if empty.Delete(0, geo.Point{}) {
		t.Fatal("Delete on empty tree reported true")
	}
	empty.Insert(7, geo.Point{X: 3, Y: 4})
	if empty.Len() != 1 || empty.KNearest(geo.Point{X: 3, Y: 4}, 1)[0].ID != 7 {
		t.Fatal("Insert into empty tree failed")
	}
}

// TestInsertGrowsFromEmpty builds a tree purely by Insert and checks it
// against a bulk-loaded twin.
func TestInsertGrowsFromEmpty(t *testing.T) {
	ids, pts := randomPoints(300, 10)
	tr := New(nil, nil, 8)
	for i := range ids {
		tr.Insert(ids[i], pts[i])
	}
	bulk := New(ids, pts, 8)
	q := geo.Point{X: 123, Y: 456}
	a, b := tr.KNearest(q, 20), bulk.KNearest(q, 20)
	if len(a) != len(b) {
		t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			t.Fatalf("i=%d: insert-built %v bulk %v", i, a[i].Dist, b[i].Dist)
		}
	}
}

// TestCloneIsolation mutates a clone heavily and verifies the original
// answers exactly as before — the copy-on-write guarantee epochs rely on.
func TestCloneIsolation(t *testing.T) {
	ids, pts := randomPoints(400, 11)
	tr := New(ids, pts, 8)
	q := geo.Point{X: 500, Y: 500}
	before := tr.KNearest(q, 400)

	c := tr.Clone()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		c.Delete(ids[i], pts[i])
	}
	for i := 0; i < 300; i++ {
		c.Insert(int32(1000+i), geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
	}
	if c.Len() != 400-200+300 {
		t.Fatalf("clone Len %d", c.Len())
	}

	after := tr.KNearest(q, 400)
	if len(after) != len(before) || tr.Len() != 400 {
		t.Fatalf("original changed size: %d results, Len %d", len(after), tr.Len())
	}
	for i := range after {
		if after[i].ID != before[i].ID || after[i].Dist != before[i].Dist {
			t.Fatalf("original changed at %d: %+v vs %+v", i, after[i], before[i])
		}
	}
}

// TestRebuildTriggers checks that sustained churn eventually repacks the
// tree and that answers stay exact across the repack.
func TestRebuildTriggers(t *testing.T) {
	ids, pts := randomPoints(256, 13)
	tr := New(ids, pts, 8)
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 2000; i++ {
		j := rng.Intn(256)
		tr.Delete(ids[j], pts[j])
		tr.Insert(ids[j], pts[j])
	}
	if tr.Rebuilds() == 0 {
		t.Fatal("2000 update pairs triggered no STR rebuild")
	}
	q := geo.Point{X: 700, Y: 300}
	got := tr.KNearest(q, 5)
	want := bruteKNN(pts, q, 5)
	for i := range got {
		if math.Abs(got[i].Dist-want[i]) > 1e-9 {
			t.Fatalf("post-rebuild i=%d: got %v want %v", i, got[i].Dist, want[i])
		}
	}
}

// TestSTRPacking checks the bulk load tiles the plane. On uniform points
// the leaf MBRs sum to at most the data's bounding box, since every slab
// holds whole leaves (leaves straddling two slabs covered it 2.2x over), and
// each upper level to at most 1.25x: grouped by child centre in STR order,
// its nodes overlap only where their children's MBRs reach past the
// centres (grouped as vertical strips in slab order they covered 1.6x). The
// node count stays that of packing ceil(n/cap) full leaves, then full
// parents, level by level.
func TestSTRPacking(t *testing.T) {
	const n, nodeCap = 2182, 16
	ids, pts := randomPoints(n, 21)
	tr := New(ids, pts, nodeCap)
	box := geo.EmptyRect()
	for _, p := range pts {
		box = box.Expand(p)
	}
	wantNodes := 0
	for width := n; width > 1; {
		width = (width + nodeCap - 1) / nodeCap
		wantNodes += width
	}
	if len(tr.nodes) != wantNodes {
		t.Fatalf("%d nodes, want %d", len(tr.nodes), wantNodes)
	}
	for depth, level := 0, []int32{tr.root}; len(level) > 0; depth++ {
		var sum float64
		var below []int32
		for _, ni := range level {
			sum += area(tr.nodes[ni].rect)
			below = append(below, tr.nodes[ni].children...)
		}
		bound := 1.25
		if tr.nodes[level[0]].leaf {
			bound = 1
		}
		ratio := sum / area(box)
		t.Logf("depth %d: %d MBRs cover %.2fx the bounding box", depth, len(level), ratio)
		if ratio > bound {
			t.Errorf("depth %d: %d MBRs cover %.2fx the bounding box, want <= %.2fx", depth, len(level), ratio, bound)
		}
		level = below
	}
}
