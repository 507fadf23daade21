// Partition-sharded serving: one DB per partition cell behind a thin
// router. Every shard opens the same snapshot file — with mmap, N shards
// cost one page cache, not N heaps — and holds the full graph and indexes
// but only its cell's objects, so a query plans against exact full-graph
// distances everywhere and sharding changes where objects live, never what
// a distance means. The router fans a query to the owning shard first,
// prunes the rest with per-cell geometric lower bounds, and merges:
// materialized KNN by threshold (a shard whose bound exceeds the running
// k-th distance cannot contribute), streaming KNNSeq by an exact k-way
// loser-tree merge (internal/kmerge) over the per-shard nondecreasing
// streams. Exactness argument in ARCHITECTURE.md ("Continental scale").
package rnknn

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"iter"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"rnknn/internal/graph"
	"rnknn/internal/kmerge"
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

// ShardedDB serves one road network from multiple DBs, each owning the
// objects of one partition cell. All methods are safe for concurrent use.
type ShardedDB struct {
	shards []*DB
	cells  []shardCell
	pt     *partition.Tree
	g      *graph.Graph
	// boxes[i] is cell i's vertex bounding box; with invSpeed it turns
	// point-to-box Euclidean distance into a network-distance lower bound.
	boxes    []bbox
	invSpeed float64
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
// buildindex -shards): one DB per manifest cell, every one a zero-copy
// mapped open of the same snapshot file, so the shards share a single
// physical copy of graph and indexes through the page cache. Methods come
// from the manifest; opts are applied to every shard after it (so
// WithMethods in opts overrides the manifest).
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
	methods := make([]Method, 0, len(man.Methods))
	for _, name := range man.Methods {
		m, err := ParseMethod(name)
		if err != nil {
			return nil, fmt.Errorf("rnknn: shard manifest: %w", err)
		}
		methods = append(methods, m)
	}
	snapPath := filepath.Join(dir, man.Snapshot)
	allOpts := append([]Option{WithMethods(methods...)}, opts...)

	s := &ShardedDB{cells: man.Cells}
	for i := 0; i < len(man.Cells); i++ {
		db, err := OpenSnapshotFile(snapPath, allOpts...)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("rnknn: opening shard %d: %w", i, err)
		}
		s.shards = append(s.shards, db)
	}
	s.g = s.shards[0].g
	s.pt = s.shards[0].batchPartition()

	leaves := s.pt.Leaves()
	last := int32(0)
	for i, c := range man.Cells {
		if c.LeafLo != last || c.LeafHi <= c.LeafLo {
			s.Close()
			return nil, fmt.Errorf("rnknn: shard manifest cell %d [%d, %d) is not contiguous", i, c.LeafLo, c.LeafHi)
		}
		last = c.LeafHi
	}
	if int(last) != len(leaves) {
		s.Close()
		return nil, fmt.Errorf("rnknn: shard manifest covers %d leaves, partition has %d", last, len(leaves))
	}

	s.boxes = make([]bbox, len(man.Cells))
	for i, c := range man.Cells {
		b := bbox{minX: math.Inf(1), minY: math.Inf(1), maxX: math.Inf(-1), maxY: math.Inf(-1)}
		for _, li := range leaves[c.LeafLo:c.LeafHi] {
			for _, v := range s.pt.Nodes[li].Vertices {
				b.add(s.g.X[v], s.g.Y[v])
			}
		}
		s.boxes[i] = b
	}
	s.invSpeed = 1 / s.g.MaxSpeed()
	return s, nil
}

// Close closes every shard (releasing the snapshot mappings). Call only
// after all queries have completed.
func (s *ShardedDB) Close() error {
	var first error
	for _, db := range s.shards {
		if db == nil {
			continue
		}
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Graph returns the shared road network.
func (s *ShardedDB) Graph() *Graph { return s.g }

// NumShards returns the number of shards.
func (s *ShardedDB) NumShards() int { return len(s.shards) }

// Shard returns shard i's DB — useful for per-shard stats or serving
// stacks; routing object mutations through it directly breaks the
// ownership invariant, use the ShardedDB methods.
func (s *ShardedDB) Shard(i int) *DB { return s.shards[i] }

// OwnerShard returns the shard whose cell contains vertex v.
func (s *ShardedDB) OwnerShard(v int32) int {
	pos := s.pt.LeafSeq[v]
	return sort.Search(len(s.cells), func(i int) bool { return s.cells[i].LeafHi > pos })
}

// ShardBound returns a lower bound on the network distance from vertex q
// to any vertex in shard i's cell: the Euclidean distance from q to the
// cell's bounding box, scaled by the graph's maximum speed (valid for
// both weight views — see graph.MaxSpeed). Zero for q's own shard.
func (s *ShardedDB) ShardBound(i int, q int32) Dist {
	d := s.boxes[i].dist(s.g.X[q], s.g.Y[q])
	return Dist(math.Floor(d * s.invSpeed))
}

// splitByOwner partitions vertices into per-shard subsets (every shard
// present, possibly empty — registering empty subsets keeps categories
// defined on every shard, so queries on a shard with no such objects get
// an empty stream rather than ErrUnknownCategory).
func (s *ShardedDB) splitByOwner(vertices []int32) ([][]int32, error) {
	n := int32(s.g.NumVertices())
	out := make([][]int32, len(s.shards))
	for _, v := range vertices {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("%w: object vertex %d (network has %d vertices)", ErrBadVertex, v, n)
		}
		o := s.OwnerShard(v)
		out[o] = append(out[o], v)
	}
	return out, nil
}

// RegisterObjects replaces the named category across all shards, each
// receiving the objects its cell owns.
func (s *ShardedDB) RegisterObjects(name string, vertices []int32) error {
	parts, err := s.splitByOwner(vertices)
	if err != nil {
		return err
	}
	return s.eachShard(func(i int, db *DB) error { return db.RegisterObjects(name, parts[i]) })
}

// InsertObjects adds objects to the named category on their owning shards
// (creating the category everywhere on first use, like DB.InsertObjects).
func (s *ShardedDB) InsertObjects(name string, vertices []int32) error {
	parts, err := s.splitByOwner(vertices)
	if err != nil {
		return err
	}
	return s.eachShard(func(i int, db *DB) error { return db.InsertObjects(name, parts[i]) })
}

// RemoveObjects removes objects from the named category on their owning
// shards; vertices not present are ignored, like DB.RemoveObjects.
func (s *ShardedDB) RemoveObjects(name string, vertices []int32) error {
	parts, err := s.splitByOwner(vertices)
	if err != nil {
		return err
	}
	return s.eachShard(func(i int, db *DB) error { return db.RemoveObjects(name, parts[i]) })
}

// eachShard runs f on every shard concurrently and returns the first
// error.
func (s *ShardedDB) eachShard(f func(i int, db *DB) error) error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, db := range s.shards {
		wg.Add(1)
		go func(i int, db *DB) {
			defer wg.Done()
			errs[i] = f(i, db)
		}(i, db)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Categories returns the registered category names (shard 0's view — the
// routed mutations keep every shard's category set identical).
func (s *ShardedDB) Categories() []string { return s.shards[0].Categories() }

// NumObjects sums the named category's objects across shards.
func (s *ShardedDB) NumObjects(name string) (int, error) {
	total := 0
	for _, db := range s.shards {
		n, err := db.NumObjects(name)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Epoch returns a composite epoch for the named category: FNV-64a over
// the per-shard epochs. It identifies a cross-shard snapshot for cache
// invalidation hints and stats; unlike a single DB's epoch it is not a
// counter. Per-shard serving stacks key their caches on their own shard's
// exact epoch.
func (s *ShardedDB) Epoch(name string) (uint64, error) {
	h := fnv.New64a()
	var buf [8]byte
	for _, db := range s.shards {
		e, err := db.Epoch(name)
		if err != nil {
			return 0, err
		}
		for i := range buf {
			buf[i] = byte(e >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64(), nil
}

// KNN answers a k-nearest-neighbors query over the union of all shards'
// objects, exactly: the owning shard answers first, its k-th distance
// becomes the pruning threshold, and only shards whose geometric lower
// bound does not exceed it are queried (in parallel) before the k-way
// merge. Results are sorted by (distance, vertex).
func (s *ShardedDB) KNN(ctx context.Context, q int32, k int, opts ...QueryOption) ([]Result, error) {
	return s.fan(ctx, s.shards[0].knnQuery(q, k, opts), func(shard int) ([]Result, error) {
		return s.shards[shard].KNN(ctx, q, k, opts...)
	})
}

// FanKNN is KNN's routing skeleton with the per-shard query pluggable:
// serving stacks pass a closure that consults their per-shard caches,
// the library path queries the shard DB directly. query is called for the
// owning shard first and then concurrently for every shard whose bound
// passes the threshold prune; each call must return that shard's exact
// top-k (or fewer if it has fewer objects) sorted by distance.
func (s *ShardedDB) FanKNN(ctx context.Context, q int32, k int, query func(shard int) ([]Result, error)) ([]Result, error) {
	return s.fan(ctx, s.shards[0].knnQuery(q, k, nil), query)
}

// Range returns every object within radius of q across all shards,
// querying only shards whose lower bound does not exceed the radius.
// Results are sorted by (distance, vertex).
func (s *ShardedDB) Range(ctx context.Context, q int32, radius Dist, opts ...QueryOption) ([]Result, error) {
	return s.fan(ctx, s.shards[0].rangeQuery(q, radius, opts), func(shard int) ([]Result, error) {
		return s.shards[shard].Range(ctx, q, radius, opts...)
	})
}

// FanRange is Range's routing skeleton with the per-shard query pluggable
// (see FanKNN).
func (s *ShardedDB) FanRange(ctx context.Context, q int32, radius Dist, query func(shard int) ([]Result, error)) ([]Result, error) {
	return s.fan(ctx, s.shards[0].rangeQuery(q, radius, nil), query)
}

// fan is the one bound-pruned fan-and-merge behind KNN and Range. The
// query is checked once up front (every shard holds the same graph and
// methods, so shard 0 speaks for all; the category is the shards' to
// report). The pruning threshold — no shard whose every object is farther
// can change the answer — is the radius for a range query; for kNN it is
// the owning shard's k-th distance, so the owner is asked first, and with
// fewer than k local results every shard must be consulted.
func (s *ShardedDB) fan(ctx context.Context, qr query, ask func(shard int) ([]Result, error)) ([]Result, error) {
	if err := s.shards[0].check(ctx, &qr); err != nil {
		return nil, err
	}
	var merged []Result
	owner, threshold := -1, qr.radius
	if !qr.isRange {
		owner = s.OwnerShard(qr.v)
		first, err := ask(owner)
		if err != nil {
			return nil, err
		}
		threshold = graph.Inf
		if len(first) >= qr.k {
			threshold = first[qr.k-1].Dist
		}
		merged = append(merged, first...)
	}
	type res struct {
		rs  []Result
		err error
	}
	results := make([]res, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		if i == owner || s.ShardBound(i, qr.v) > threshold {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := ask(i)
			results[i] = res{rs, err}
		}(i)
	}
	wg.Wait()
	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
		merged = append(merged, results[i].rs...)
	}
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].Dist != merged[b].Dist {
			return merged[a].Dist < merged[b].Dist
		}
		return merged[a].Vertex < merged[b].Vertex
	})
	if !qr.isRange && len(merged) > qr.k {
		merged = merged[:qr.k]
	}
	return merged, nil
}

// shardStream adapts one shard's KNNSeq to a kmerge.Source: the stream is
// opened lazily on first Next, so shards whose bound never wins the
// tournament never run a search at all.
type shardStream struct {
	open  func() (func() (Result, error, bool), func())
	bound Dist
	next  func() (Result, error, bool)
	stop  func()
	err   error
}

func (ss *shardStream) Bound() int64 { return int64(ss.bound) }

func (ss *shardStream) Next() (kmerge.Item, bool, error) {
	if ss.next == nil {
		ss.next, ss.stop = ss.open()
	}
	r, err, ok := ss.next()
	if !ok {
		return kmerge.Item{}, false, nil
	}
	if err != nil {
		return kmerge.Item{}, false, err
	}
	return kmerge.Item{V: r.Vertex, D: int64(r.Dist)}, true, nil
}

// KNNSeq streams the global k nearest neighbors in nondecreasing
// (distance, vertex) order by merging the per-shard KNNSeq streams with a
// loser tree keyed on each shard's lower bound: a shard's stream is opened
// only when its bound becomes the merge frontier, and the merge is exact
// because each per-shard stream yields exact full-graph distances in
// nondecreasing order (see ARCHITECTURE.md for the argument). Breaking
// early abandons the remaining per-shard searches.
func (s *ShardedDB) KNNSeq(ctx context.Context, q int32, k int, opts ...QueryOption) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		qr := s.shards[0].knnQuery(q, k, opts)
		if err := s.shards[0].check(ctx, &qr); err != nil {
			yield(Result{}, err)
			return
		}
		streams := make([]*shardStream, len(s.shards))
		sources := make([]kmerge.Source, len(s.shards))
		for i := range s.shards {
			db := s.shards[i]
			streams[i] = &shardStream{
				bound: s.ShardBound(i, q),
				open: func() (func() (Result, error, bool), func()) {
					return iter.Pull2(db.KNNSeq(ctx, q, k, opts...))
				},
			}
			sources[i] = streams[i]
		}
		defer func() {
			for _, ss := range streams {
				if ss.stop != nil {
					ss.stop()
				}
			}
		}()
		yielded := 0
		err := kmerge.Merge(sources, func(it kmerge.Item) bool {
			if !yield(Result{Vertex: it.V, Dist: Dist(it.D)}, nil) {
				return false
			}
			yielded++
			return yielded < k
		})
		if err != nil {
			yield(Result{}, err)
		}
	}
}
