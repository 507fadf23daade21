package rtree

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"
	"sync"
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

// TestScannerTiesAndZero pins the scan's float-bits keys where they can
// go wrong: a point at the query (distance +0) comes first with Dist 0,
// every point at one exact distance is returned at that distance, and the
// scan stays in nondecreasing order through the ties, at any node size.
func TestScannerTiesAndZero(t *testing.T) {
	q := geo.Point{X: 10, Y: 20}
	offsets := []geo.Point{
		{X: 0, Y: 0}, {X: 0, Y: 0}, // at the query
		{X: 5, Y: 0}, {X: -5, Y: 0}, {X: 0, Y: 5}, {X: 0, Y: -5},
		{X: 3, Y: 4}, {X: -3, Y: 4}, {X: 4, Y: -3}, {X: -4, Y: -3}, // all at 5
		{X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0.5, Y: 0}, {X: 6, Y: 8}, {X: -8, Y: 6}, {X: 0, Y: 7},
	}
	ids := make([]int32, len(offsets))
	pts := make([]geo.Point, len(offsets))
	want := make([]float64, len(offsets))
	for i, o := range offsets {
		ids[i], pts[i] = int32(i), geo.Point{X: q.X + o.X, Y: q.Y + o.Y}
		want[i] = q.Dist(pts[i])
	}
	sort.Float64s(want)
	for _, nodeCap := range []int{2, 3, 16} {
		s := New(ids, pts, nodeCap).NewScan(q)
		seen := map[int32]bool{}
		for i, w := range want {
			peek := s.PeekDist()
			n, ok := s.Next()
			if !ok || n.Dist != w || n.Dist != q.Dist(pts[n.ID]) || seen[n.ID] || peek > n.Dist {
				t.Fatalf("cap %d: neighbor %d = %+v, %v (peek %v); want distance %v", nodeCap, i, n, ok, peek, w)
			}
			if n.Dist == 0 && math.Signbit(n.Dist) {
				t.Fatalf("cap %d: neighbor %d at -0", nodeCap, i)
			}
			seen[n.ID] = true
		}
		if _, ok := s.Next(); ok || !math.IsInf(s.PeekDist(), 1) {
			t.Fatalf("cap %d: scan not exhausted after %d points", nodeCap, len(want))
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
	if tr.Nodes() != wantNodes {
		t.Fatalf("%d nodes, want %d", tr.Nodes(), wantNodes)
	}
	for depth, level := 0, []*node{tr.root}; len(level) > 0; depth++ {
		var sum float64
		var below []*node
		for _, n := range level {
			sum += area(n.rect)
			below = append(below, n.children...)
		}
		bound := 1.25
		if level[0].leaf {
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

// checkExact compares a full scan of tr with the live set.
func checkExact(t *testing.T, tr *Tree, live map[int32]geo.Point, q geo.Point, when string) {
	t.Helper()
	got := tr.KNearest(q, len(live)+1)
	if len(got) != len(live) || tr.Len() != len(live) {
		t.Fatalf("%s: scan found %d entries, Len %d, want %d", when, len(got), tr.Len(), len(live))
	}
	prev := -1.0
	for _, n := range got {
		p, ok := live[n.ID]
		if !ok || n.Dist != q.Dist(p) || n.Dist < prev {
			t.Fatalf("%s: scan returned %+v, not a live entry in distance order", when, n)
		}
		prev = n.Dist
	}
}

// TestRepackCountsNetDegradation inserts fresh points into a bulk-loaded
// tree and removes each again, 10,000 times: the set keeps returning to
// its packed contents, so no STR repack may run, and the tree stays exact.
func TestRepackCountsNetDegradation(t *testing.T) {
	ids, pts := randomPoints(256, 15)
	tr := New(ids, pts, 8)
	live := map[int32]geo.Point{}
	for i, id := range ids {
		live[id] = pts[i]
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 10000; i++ {
		id, p := int32(1000+i), geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		tr.Insert(id, p)
		if !tr.Delete(id, p) {
			t.Fatalf("op %d: Delete of the entry just inserted reported absent", i)
		}
	}
	if tr.Rebuilds() != 0 {
		t.Fatalf("%d STR repacks after churn that left the packed set unchanged, want 0", tr.Rebuilds())
	}
	checkExact(t, tr, live, geo.Point{X: 250, Y: 750}, "after churn")
}

// copied returns how many nodes tr reaches that it wrote since its last
// Clone, and how many of the nodes it reaches src reaches too.
func copied(tr, src *Tree) (written, shared int) {
	in := map[*node]bool{}
	src.walk(func(n *node) { in[n] = true })
	tr.walk(func(n *node) {
		if tr.gen != 0 && n.gen == tr.gen {
			written++
		}
		if in[n] {
			shared++
		}
	})
	return written, shared
}

// TestClonePathCopies derives a chain of clones, each mutated by a small
// delta, and keeps every version. A derivation writes at most its touched
// paths (each node copied once per Clone) plus the nodes their splits add,
// and shares every other node with the version it was cloned from, and
// every version — including ones cloned more than once — answers from its
// own set.
func TestClonePathCopies(t *testing.T) {
	ids, pts := randomPoints(600, 17)
	tr := New(ids[:300], pts[:300], 8)
	live := map[int32]geo.Point{}
	for i := 0; i < 300; i++ {
		live[ids[i]] = pts[i]
	}
	type version struct {
		tr   *Tree
		live map[int32]geo.Point
	}
	versions := []version{{tr, live}}
	rng := rand.New(rand.NewSource(18))
	height := func(tr *Tree) int {
		h := 1
		for n := tr.root; !n.leaf; n = n.children[0] {
			h++
		}
		return h
	}
	for step := 0; step < 300; step++ {
		parent := versions[len(versions)-1]
		if step%50 == 49 {
			parent = versions[rng.Intn(len(versions))] // a branch off an older version
		}
		c := parent.tr.Clone()
		live := maps.Clone(parent.live)
		h := height(c)
		ops := 1 + rng.Intn(4)
		for range ops {
			i := rng.Intn(len(ids))
			if p, ok := live[ids[i]]; ok {
				c.Delete(ids[i], p)
				delete(live, ids[i])
			} else {
				c.Insert(ids[i], pts[i])
				live[ids[i]] = pts[i]
			}
		}
		if c.Rebuilds() == parent.tr.Rebuilds() {
			written, shared := copied(c, parent.tr)
			// An op copies at most h+1 nodes (its path, one level
			// more after a root split) and splits add as many again.
			if written > ops*2*(h+1) {
				t.Fatalf("step %d: %d ops over height %d copied %d nodes", step, ops, h, written)
			}
			if written+shared != c.Nodes() {
				t.Fatalf("step %d: %d nodes written and %d shared of %d", step, written, shared, c.Nodes())
			}
		}
		versions = append(versions, version{c, live})
	}
	for i, v := range versions {
		checkExact(t, v.tr, v.live, geo.Point{X: float64(i), Y: 500}, fmt.Sprintf("version %d", i))
	}
}

// TestCloneCopiesEachNodeOnce deletes two entries of one leaf from a clone:
// the first copies the root-to-leaf path, the second writes that copy in
// place, and every other node stays the source's.
func TestCloneCopiesEachNodeOnce(t *testing.T) {
	ids, pts := randomPoints(500, 19)
	tr := New(ids, pts, 8)
	c := tr.Clone()
	leaf := tr.root
	depth := 1
	for ; !leaf.leaf; leaf = leaf.children[0] {
		depth++
	}
	a, b := leaf.ents[0], leaf.ents[1]
	var first Tree
	for i, e := range []entry{a, b} {
		c.Delete(e.id, e.pt)
		if written, shared := copied(c, tr); written != depth || shared != tr.Nodes()-depth {
			t.Fatalf("delete %d: %d nodes copied, %d shared, want the %d-node path and %d", i+1, written, shared, depth, tr.Nodes()-depth)
		}
		if i == 0 {
			first = *c
		} else if _, same := copied(c, &first); same != c.Nodes() {
			t.Fatalf("second delete copied %d nodes again", c.Nodes()-same)
		}
	}
	if tr.Len() != 500 || len(tr.KNearest(a.pt, 500)) != 500 {
		t.Fatal("the source tree lost entries")
	}
}

// TestMutateAfterClone clones one tree twice and then writes to all three,
// in every order: each keeps its own entries. The source owned every node
// of its bulk load before the clones shared them, so no version may write
// another's nodes in place.
func TestMutateAfterClone(t *testing.T) {
	ids, pts := randomPoints(350, 20)
	orders := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, order := range orders {
		tr := New(ids[:200], pts[:200], 8)
		trees := []*Tree{tr, tr.Clone(), tr.Clone()}
		lives := make([]map[int32]geo.Point, 3)
		for v := range lives {
			lives[v] = map[int32]geo.Point{}
			for i := 0; i < 200; i++ {
				lives[v][ids[i]] = pts[i]
			}
		}
		for _, v := range order {
			from := 200 + 50*v
			for i := from; i < from+50; i++ {
				trees[v].Insert(ids[i], pts[i])
				lives[v][ids[i]] = pts[i]
				trees[v].Delete(ids[i-from], pts[i-from])
				delete(lives[v], ids[i-from])
			}
		}
		for v, tr := range trees {
			checkExact(t, tr, lives[v], geo.Point{X: 300, Y: 300}, fmt.Sprintf("order %v, version %d", order, v))
		}
	}
}

// TestScanWhileDeriving scans pinned versions on other goroutines while
// the next versions are cloned and mutated from them: run under -race, it
// fails if a derivation writes memory a pinned version reads.
func TestScanWhileDeriving(t *testing.T) {
	ids, pts := randomPoints(400, 22)
	tr := New(ids[:200], pts[:200], 8)
	live := map[int32]geo.Point{}
	for i := 0; i < 200; i++ {
		live[ids[i]] = pts[i]
	}
	rng := rand.New(rand.NewSource(23))
	var wg sync.WaitGroup
	for step := 0; step < 60; step++ {
		pinned, want := tr, len(live)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				if got := len(pinned.KNearest(geo.Point{X: 500, Y: 500}, want+1)); got != want {
					t.Errorf("pinned version scanned %d entries, want %d", got, want)
					return
				}
			}
		}()
		tr = tr.Clone()
		for range 4 {
			i := rng.Intn(len(ids))
			if p, ok := live[ids[i]]; ok {
				tr.Delete(ids[i], p)
				delete(live, ids[i])
			} else {
				tr.Insert(ids[i], pts[i])
				live[ids[i]] = pts[i]
			}
		}
	}
	wg.Wait()
	checkExact(t, tr, live, geo.Point{X: 100, Y: 900}, "newest")
}
