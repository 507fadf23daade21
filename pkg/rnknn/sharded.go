// Partition-sharded serving: a shard set is one DB whose categories are
// partitioned. OpenSharded opens the set's one snapshot once — one mapping,
// one engine, one set of session pools, one planner — and installs the
// manifest's cell table on it; from then on every category epoch carries one
// object binding per cell (see epoch), a mutation routes each vertex to its
// owning cell and publishes all cells with one store, and a query pins one
// epoch and answers from it across cells. Every cell is searched with exact
// full-graph distances, so sharding changes where objects live, never what a
// distance means. Per-cell geometric lower bounds prune the cells a query
// opens: materialized queries by threshold (fan), streaming KNNSeq by an
// exact lazy merge of the per-cell nondecreasing streams (mergeCells).
// Exactness argument in ARCHITECTURE.md ("Continental scale").
package rnknn

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"

	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/partition"
)

// ShardManifestName is the file OpenSharded reads inside a shard set
// directory; ShardSnapshotName is the single snapshot every shard maps.
const (
	ShardManifestName = "manifest.json"
	ShardSnapshotName = "index.rnks"
)

// shardManifest describes a shard set on disk: which snapshot to open,
// which methods to enable, and how the partition's DFS leaf sequence is
// cut into cells. Cells are ranges over leaf positions (partition.Tree
// LeafSeq order), which makes ownership a binary search and keeps the
// manifest O(shards) regardless of graph size.
type shardManifest struct {
	Version     int         `json:"version"`
	Graph       string      `json:"graph"`
	Fingerprint string      `json:"fingerprint"`
	Snapshot    string      `json:"snapshot"`
	Methods     []string    `json:"methods"`
	Cells       []shardCell `json:"cells"`
}

type shardCell struct {
	// LeafLo and LeafHi bound the cell's leaves in DFS order: positions
	// [LeafLo, LeafHi).
	LeafLo int32 `json:"leafLo"`
	LeafHi int32 `json:"leafHi"`
}

// shardCells cuts the partition tree's DFS leaf sequence into shards
// contiguous cells balanced by vertex count: deterministic in the tree, so
// writer and opener derive identical cells from the same snapshot.
func shardCells(pt *partition.Tree, shards int) ([]shardCell, error) {
	leaves := pt.Leaves()
	if shards <= 0 {
		return nil, fmt.Errorf("rnknn: shard count %d must be positive", shards)
	}
	if shards > len(leaves) {
		return nil, fmt.Errorf("rnknn: %d shards exceed the partition's %d leaves", shards, len(leaves))
	}
	total := 0
	for _, li := range leaves {
		total += len(pt.Nodes[li].Vertices)
	}
	cells := make([]shardCell, 0, shards)
	lo, acc := 0, 0
	for pos, li := range leaves {
		acc += len(pt.Nodes[li].Vertices)
		remainingLeaves := len(leaves) - pos - 1
		remainingCells := shards - len(cells) - 1
		// Close the cell at the balanced-weight boundary, or when the
		// leaves left are only just enough to keep later cells non-empty.
		if (acc*shards >= total*(len(cells)+1) || remainingLeaves < remainingCells+1) && remainingCells >= 0 {
			cells = append(cells, shardCell{LeafLo: int32(lo), LeafHi: int32(pos + 1)})
			lo = pos + 1
			if len(cells) == shards {
				break
			}
		}
	}
	cells[len(cells)-1].LeafHi = int32(len(leaves))
	return cells, nil
}

// SaveShardSet writes dir/index.rnks (the DB's snapshot, graph included)
// and dir/manifest.json cutting the road network into shards cells, ready
// for OpenSharded. The cells come from the same partition tree the batch
// planner uses (the G-tree's when that index is built, a standalone
// geometric partition otherwise) — decoded back from the very snapshot
// being written, so OpenSharded reconstructs them bit-identically.
func (db *DB) SaveShardSet(dir string, shards int) error {
	cells, err := shardCells(db.batchPartition(), shards)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := db.SaveIndexesFile(filepath.Join(dir, ShardSnapshotName)); err != nil {
		return err
	}
	methods := make([]string, len(db.methods))
	for i, m := range db.methods {
		methods[i] = m.String()
	}
	man := shardManifest{
		Version:     1,
		Graph:       db.g.Name,
		Fingerprint: fmt.Sprintf("%016x", db.eng.Fingerprint()),
		Snapshot:    ShardSnapshotName,
		Methods:     methods,
		Cells:       cells,
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, ShardManifestName), func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// ShardedDB is the DB OpenSharded returns: an ordinary DB with a cell table
// installed. The name survives for callers that spell the shard-set type;
// every method is DB's own.
type ShardedDB = DB

// cellTable is a shard set's partition as the DB holds it: the manifest's
// cells over the partition tree's DFS leaf sequence, and per cell the
// bounding box that lower-bounds distances into it and the count of searches
// that opened it.
type cellTable struct {
	cells []shardCell
	pt    *partition.Tree
	// boxes[i] is cell i's vertex bounding box; with invSpeed it turns
	// point-to-box Euclidean distance into a network-distance lower bound.
	boxes    []bbox
	invSpeed float64
	opened   []atomic.Uint64
}

type bbox struct {
	minX, minY, maxX, maxY float64
}

func (b *bbox) add(x, y float64) {
	b.minX = math.Min(b.minX, x)
	b.minY = math.Min(b.minY, y)
	b.maxX = math.Max(b.maxX, x)
	b.maxY = math.Max(b.maxY, y)
}

// dist returns the Euclidean distance from (x, y) to the box (zero
// inside).
func (b *bbox) dist(x, y float64) float64 {
	dx := math.Max(0, math.Max(b.minX-x, x-b.maxX))
	dy := math.Max(0, math.Max(b.minY-y, y-b.maxY))
	return math.Hypot(dx, dy)
}

// OpenSharded opens the shard set written by SaveShardSet (or cmd/
// buildindex -shards): ONE zero-copy mapped open of the set's snapshot
// (OpenSnapshotFile) with the manifest's cell table installed on the
// resulting DB, so N cells cost one mapping, one engine and one pool set
// plus N object bindings per category. Methods come from the manifest; opts
// are applied after it (so WithMethods in opts overrides the manifest). A
// manifest written for another road network than the snapshot beside it is
// ErrFingerprintMismatch.
func OpenSharded(dir string, opts ...Option) (*ShardedDB, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ShardManifestName))
	if err != nil {
		return nil, err
	}
	var man shardManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("rnknn: shard manifest: %w", err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("rnknn: shard manifest version %d unsupported", man.Version)
	}
	if len(man.Cells) == 0 {
		return nil, fmt.Errorf("rnknn: shard manifest has no cells")
	}
	last := int32(0)
	for i, c := range man.Cells {
		if c.LeafLo != last || c.LeafHi <= c.LeafLo {
			return nil, fmt.Errorf("rnknn: shard manifest cell %d [%d, %d) is not contiguous", i, c.LeafLo, c.LeafHi)
		}
		last = c.LeafHi
	}
	if filepath.Base(man.Snapshot) != man.Snapshot {
		return nil, fmt.Errorf("rnknn: shard manifest snapshot %q is not a file name inside the shard set", man.Snapshot)
	}
	methods := make([]Method, 0, len(man.Methods))
	for _, name := range man.Methods {
		m, err := ParseMethod(name)
		if err != nil {
			return nil, fmt.Errorf("rnknn: shard manifest: %w", err)
		}
		methods = append(methods, m)
	}
	allOpts := append([]Option{WithMethods(methods...)}, opts...)
	allOpts = append(allOpts, func(c *config) { c.shardSet = &man })
	return OpenSnapshotFile(filepath.Join(dir, man.Snapshot), allOpts...)
}

// installCells makes db a shard set: it checks the manifest was written for
// the road network db opened and that its cells cover the partition's leaves,
// then derives each cell's bounding box. Open calls it before any category is
// registered, so every epoch is split by the table from the first.
func (db *DB) installCells(man *shardManifest) error {
	if fp := fmt.Sprintf("%016x", db.eng.Fingerprint()); man.Fingerprint != fp {
		return fmt.Errorf("%w: shard manifest is for graph %q (fingerprint %s), snapshot holds %q (%s)",
			ErrFingerprintMismatch, man.Graph, man.Fingerprint, db.g.Name, fp)
	}
	pt := db.batchPartition()
	leaves := pt.Leaves()
	if covered := int(man.Cells[len(man.Cells)-1].LeafHi); covered != len(leaves) {
		return fmt.Errorf("rnknn: shard manifest covers %d leaves, partition has %d", covered, len(leaves))
	}
	t := &cellTable{
		cells:    man.Cells,
		pt:       pt,
		boxes:    make([]bbox, len(man.Cells)),
		invSpeed: 1 / db.g.MaxSpeed(),
		opened:   make([]atomic.Uint64, len(man.Cells)),
	}
	for i, c := range man.Cells {
		b := bbox{minX: math.Inf(1), minY: math.Inf(1), maxX: math.Inf(-1), maxY: math.Inf(-1)}
		for _, li := range leaves[c.LeafLo:c.LeafHi] {
			for _, v := range pt.Nodes[li].Vertices {
				b.add(db.g.X[v], db.g.Y[v])
			}
		}
		t.boxes[i] = b
	}
	db.shards = t
	return nil
}

// NumShards returns the number of partition cells a category's objects are
// split over: the manifest's on a shard set, 1 on an ordinary DB.
func (db *DB) NumShards() int {
	if db.shards == nil {
		return 1
	}
	return len(db.shards.cells)
}

// OwnerShard returns the cell that owns vertex v.
func (db *DB) OwnerShard(v int32) int {
	t := db.shards
	if t == nil {
		return 0
	}
	pos := t.pt.LeafSeq[v]
	return sort.Search(len(t.cells), func(i int) bool { return t.cells[i].LeafHi > pos })
}

// ShardBound returns a lower bound on the network distance from vertex q
// to any vertex in cell i: the Euclidean distance from q to the cell's
// bounding box, scaled by the graph's maximum speed (valid for both weight
// views — see graph.MaxSpeed). Zero for q's own cell.
func (db *DB) ShardBound(i int, q int32) Dist {
	t := db.shards
	if t == nil {
		return 0
	}
	d := t.boxes[i].dist(db.g.X[q], db.g.Y[q])
	return Dist(math.Floor(d * t.invSpeed))
}

// splitByOwner partitions vertices (already validated) into per-cell
// subsets, every cell present, possibly empty (an ordinary DB has one
// cell), written over dst's slices and returned. A full cell grows to hold
// every vertex still to come, so an ordinary DB's split allocates at most
// once. Nothing retains a split: the object set copies what it keeps.
func (db *DB) splitByOwner(dst [][]int32, vertices []int32) [][]int32 {
	cells := 1
	if db.shards != nil {
		cells = len(db.shards.cells)
	}
	dst = slices.Grow(dst[:0], cells)[:cells]
	for i := range dst {
		dst[i] = dst[i][:0]
	}
	for i, v := range vertices {
		o := db.OwnerShard(v)
		if len(dst[o]) == cap(dst[o]) {
			dst[o] = slices.Grow(dst[o], len(vertices)-i)
		}
		dst[o] = append(dst[o], v)
	}
	return dst
}

// cellBound is one cell in a fan's visiting order.
type cellBound struct {
	cell  int
	bound Dist
}

// fan is the one bound-pruned search of a multi-cell epoch, run on the one
// session the query already holds: the non-empty cells are visited in
// ascending lower-bound order — IER's Euclidean ordering (paper §3.2)
// applied to cells — with the session rebound to each, and the visit stops
// at the first cell whose bound exceeds the threshold, since no cell whose
// every object is farther can change the answer. The threshold is the radius
// for a range query; for kNN it is the running k-th distance, tightened after
// every cell (∞ while fewer than k results are in hand, so then every cell
// is consulted). A kNN search inside a cell stops at the threshold too
// (searchWithin; inclusive, so an object tied with the running k-th still
// competes for its place), and its sorted answer is merged into the running
// top-k in one pass. Results land in dst sorted by (distance, vertex).
func (db *DB) fan(ctx context.Context, ps *pooledSession, qr *query, ep *epoch, dst []Result) []Result {
	order := ps.order[:0]
	for i, p := range ep.parts {
		if p.Objs.Len() > 0 {
			order = append(order, cellBound{i, db.ShardBound(i, qr.v)})
		}
	}
	slices.SortFunc(order, func(a, b cellBound) int { return cmp.Compare(a.bound, b.bound) })
	ps.order = order
	mark, threshold := len(dst), qr.radius
	if !qr.isRange {
		threshold = graph.Inf
	}
	for _, c := range order {
		if c.bound > threshold || ctx.Err() != nil {
			break
		}
		db.shards.opened[c.cell].Add(1)
		ps.sess.Rebind(ep.parts[c.cell])
		if qr.isRange {
			dst = ps.search(qr, dst)
			continue
		}
		top := len(dst)
		dst = ps.searchWithin(qr, threshold, dst)
		slices.SortFunc(dst[top:], knn.ByDistVertex)
		if top > mark {
			ps.merged = mergeTopK(ps.merged[:0], dst[mark:top], dst[top:], qr.k)
			dst = append(dst[:mark], ps.merged...)
		}
		if len(dst)-mark >= qr.k {
			threshold = dst[len(dst)-1].Dist
		}
	}
	if qr.isRange {
		slices.SortFunc(dst[mark:], knn.ByDistVertex)
	}
	return dst
}

// mergeTopK appends to out the first k results of the union of a and b, both
// sorted by (distance, vertex), in that order.
func mergeTopK(out, a, b []Result, k int) []Result {
	for len(out) < k && (len(a) > 0 || len(b) > 0) {
		if len(b) == 0 || len(a) > 0 && knn.ByDistVertex(a[0], b[0]) <= 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return out
}

// cellStream is one cell's streaming search inside mergeCells. It is opened
// lazily, so a cell whose bound never reaches the merge frontier never runs a
// search at all.
type cellStream struct {
	cell  int
	bound Dist
	// head is the next result not yet emitted, valid once the stream is open
	// (next != nil) and until it is done.
	head Result
	next func() (Result, bool)
	stop func()
	done bool
	err  error
}

// key is the stream's place in the merge frontier: its head once open, else
// its bound with the lowest vertex id, so that a bound sorts ahead of an item
// at the same distance and the cell is opened before that item is emitted —
// it may hold one of exactly that distance.
func (cs *cellStream) key() Result {
	if cs.next == nil {
		return Result{Vertex: math.MinInt32, Dist: cs.bound}
	}
	return cs.head
}

// mergeCells is KNNSeq over a multi-cell epoch: the global k nearest in
// nondecreasing (distance, vertex) order, by merging the per-cell streams
// over a linear frontier — each step takes the least key among the cells not
// yet exhausted, which at shard-count fan-in is a handful of comparisons
// beside the coroutine switch every pulled result already costs. A cell's
// stream — its own pooled session, bound to that cell's part of ep — is
// opened only when its bound becomes the frontier's minimum, and the merge is
// exact because each per-cell stream yields exact full-graph distances in
// nondecreasing order, none below the cell's bound (see ARCHITECTURE.md for
// the argument). emit returning false abandons the remaining per-cell
// searches.
func (db *DB) mergeCells(ctx context.Context, qr *query, ep *epoch, m Method, emit func(Result) bool) error {
	var streams []*cellStream
	for i, part := range ep.parts {
		if part.Objs.Len() > 0 {
			streams = append(streams, &cellStream{cell: i, bound: db.ShardBound(i, qr.v)})
		}
	}
	defer func() {
		for _, cs := range streams {
			if cs.stop != nil {
				cs.stop()
			}
		}
	}()
	yielded := 0
	for {
		var least *cellStream
		for _, cs := range streams {
			if !cs.done && (least == nil || knn.ByDistVertex(cs.key(), least.key()) < 0) {
				least = cs
			}
		}
		switch {
		case least == nil:
			return nil
		case least.next == nil:
			if ctx.Err() != nil {
				return nil
			}
			cs := least // captured by value: least itself stays off the heap
			db.shards.opened[cs.cell].Add(1)
			cs.next, cs.stop = iter.Pull(func(yield func(Result) bool) {
				cs.err = db.streamPart(ctx, qr, ep.parts[cs.cell], m, yield)
			})
		default:
			if yielded++; !emit(least.head) || yielded == qr.k {
				return nil
			}
		}
		r, ok := least.next()
		if least.head, least.done = r, !ok; least.err != nil {
			return least.err
		}
	}
}
