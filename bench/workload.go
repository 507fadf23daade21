package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
	"rnknn/internal/loadtest"
	"rnknn/pkg/rnknn"
)

// Object densities: the paper's density axis (Figure 11), uniform objects.
const (
	d0001 = iota // density 0.0001
	d001         // 0.001, the paper's default
	d01          // 0.01
	d1           // 0.1
	numDensities
)

// replicas is how many independent object sets each density has. A query's
// cost depends on where the objects happen to lie — with 21 objects and
// k=10 the mean cost of one set differs from the next set's by some 20 % —
// so a workload that is meant to measure the code, not one placement, draws
// each operation's category from all replicas of its density. The sparser
// the density, the fewer objects a set has and the more sets it takes.
var replicas = [numDensities]int{64, 64, 16, 4}

// catID names one object category: replica r of density d is catBase[d]+r.
type catID uint16

const numCats = 64 + 64 + 16 + 4

var catBase = func() (base [numDensities + 1]int) {
	for d, n := range replicas {
		base[d+1] = base[d] + n
	}
	if base[numDensities] != numCats {
		panic("rnbench: numCats is not the sum of replicas")
	}
	return
}()

func cat(density, replica int) catID { return catID(catBase[density] + replica) }

func (c catID) density() int {
	d := 0
	for int(c) >= catBase[d+1] {
		d++
	}
	return d
}

var (
	densityNames = [numDensities]string{"d0.0001", "d0.001", "d0.01", "d0.1"}
	densities    = [numDensities]float64{0.0001, 0.001, 0.01, 0.1}
	// catNames[c] is category c's name on the wire: "d0.001.07".
	catNames = func() (names [numCats]string) {
		for c := range names {
			d := catID(c).density()
			names[c] = fmt.Sprintf("%s.%02d", densityNames[d], c-catBase[d])
		}
		return
	}()
	// gridKs is the k axis of Figures 10-11.
	gridKs = [...]int32{1, 5, 10, 25, 50}
)

const (
	defaultK   = 10   // the paper's default k
	hotPool    = 2048 // http-hot / http-churn key pool: fits rnknnd's default 4096-entry cache
	hotCells   = 64   // http-batch: hot cells
	cellSpan   = 256  // contiguous vertex ids per cell (ids are spatially adjacent on the ladder grids)
	batchSize  = 32
	mutateSize = 4 // vertices per insert or remove
	churnShare = 0.02
	rangeShare = 0.10
	// namedEvery: one in this many of lib-auto's queries names IER-PHL
	// instead of MethodAuto. The planner never re-samples a method it has
	// abandoned, so one multi-millisecond outlier on the best method parks a
	// (k, density) cell on a 20x slower one for the rest of a run: of 20
	// seeds of pure MethodAuto, 10 ran at 29-38k queries/s with G-tree
	// answering 2-9 % of them, the rest at 40-52k; with this trickle twelve
	// of the same seeds all ran at 44-48k (README.md has the runs). No bound
	// the benchmark contract allows holds over the former. Fixed-method
	// traffic trains the planner too, so the trickle lets a parked cell
	// recover within half a second. The HTTP workloads are pure MethodAuto:
	// http-churn's one cell did not park in 30 seeds, and http-sharded
	// measured the same with the trickle and without. Delete this when the
	// planner explores on its own.
	namedEvery = 64
)

// world is everything a workload's inputs are drawn from; all of it is a
// function of (network, seed).
type world struct {
	g     *graph.Graph
	cats  [numCats][]int32 // the objects each category is registered with, sorted
	pool  []int32          // hot query vertices
	cells []int32          // first vertex id of each hot cell
	span  int32            // vertices per hot cell
	// radius is the range-query radius per density: the median distance to
	// the defaultK-th neighbour, so a range answer is about defaultK objects.
	radius [numDensities]int64
}

func newWorld(g *graph.Graph, seed int64) *world {
	w := &world{g: g}
	n := g.NumVertices()
	for c := range w.cats {
		w.cats[c] = gen.Uniform(g, densities[catID(c).density()], seed*numCats+int64(c))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x706f6f6c))
	w.pool = make([]int32, min(hotPool, n))
	for i, v := range rng.Perm(n)[:len(w.pool)] {
		w.pool[i] = int32(v)
	}
	w.span = int32(min(cellSpan, n))
	numCells := n / int(w.span)
	for _, c := range rng.Perm(numCells)[:min(hotCells, numCells)] {
		w.cells = append(w.cells, int32(c)*w.span)
	}
	for d := range w.radius {
		var kth []int64
		for i := 0; i < 64; i++ {
			objs := knn.NewObjectSet(g, w.cats[cat(d, i%replicas[d])])
			res := knn.BruteForce(g, objs, int32(rng.Intn(n)), defaultK)
			kth = append(kth, res[len(res)-1].Dist)
		}
		sort.Slice(kth, func(i, j int) bool { return kth[i] < kth[j] })
		w.radius[d] = kth[len(kth)/2]
	}
	return w
}

// registered reports whether v is one of the objects category c is
// registered with (gen.Uniform returns them sorted).
func (w *world) registered(c catID, v int32) bool {
	_, found := slices.BinarySearch(w.cats[c], v)
	return found
}

type opKind uint8

const (
	opKNN opKind = iota
	opRange
	opInsert
	opRemove
	opBatch
)

// op is one operation of a workload's stream.
type op struct {
	kind   opKind
	cat    catID
	method rnknn.Method // opKNN only
	k      int32        // opKNN, opBatch
	q      int32        // opKNN, opRange
	radius int64        // opRange
	verts  []int32      // mutation vertices, or the batch's member query vertices
}

func (o *op) isWrite() bool { return o.kind == opInsert || o.kind == opRemove }

// String is the op's canonical text; the stream-determinism test compares it.
func (o *op) String() string {
	return fmt.Sprintf("%d/%s/%v/k%d/q%d/r%d/%v", o.kind, catNames[o.cat], o.method, o.k, o.q, o.radius, o.verts)
}

// stream draws one client's operations. Client id of a run seeded s draws
// from a PRNG seeded s+id, so two commits under comparison see the same
// prefix of operations on every connection.
type stream struct {
	w       *world
	wl      *workload
	rng     *rand.Rand
	zipf    *loadtest.Zipf
	n       int     // operations drawn so far
	pending []int32 // vertices this stream inserted last and removes next
	// pendingCat is the category pending went into.
	pendingCat catID
}

func newStream(w *world, wl *workload, seed int64, id int) *stream {
	rng := rand.New(rand.NewSource(seed + int64(id)))
	return &stream{w: w, wl: wl, rng: rng, zipf: loadtest.NewZipf(rng, 1.0, len(w.pool))}
}

func (s *stream) next() op {
	o := s.wl.draw(s)
	s.n++
	return o
}

func (s *stream) anyVertex() int32 { return int32(s.rng.Intn(s.w.g.NumVertices())) }

// anyReplica draws one of the density's categories.
func (s *stream) anyReplica(density int) catID { return cat(density, s.rng.Intn(replicas[density])) }
func (s *stream) gridK() int32                 { return gridKs[s.rng.Intn(len(gridKs))] }

// mutation alternates between inserting mutateSize random vertices and
// removing the ones it inserted, so every mutation changes the set and
// advances the epoch. The vertices are drawn from outside the category's
// registered set: InsertObjects ignores a vertex that is an object already,
// and the remove that follows would take a registered object away, thinning
// the category with every pair. As drawn, the registered set is a subset of
// the live set at all times, and the live set is the registered set again
// whenever no stream has a remove pending.
func (s *stream) mutation(cat catID) op {
	if o, ok := s.settle(); ok {
		return o
	}
	verts := make([]int32, mutateSize)
	for i := range verts {
		verts[i] = s.anyVertex()
		for s.w.registered(cat, verts[i]) {
			verts[i] = s.anyVertex()
		}
	}
	s.pending, s.pendingCat = verts, cat
	return op{kind: opInsert, cat: cat, verts: verts}
}

// settle returns the remove that undoes the stream's last insert, if it has
// not been drawn yet. Whoever stops drawing from a stream issues it, so that
// the next phase of the run finds the category as registered.
func (s *stream) settle() (op, bool) {
	if s.pending == nil {
		return op{}, false
	}
	o := op{kind: opRemove, cat: s.pendingCat, verts: s.pending}
	s.pending = nil
	return o, true
}

type targetKind uint8

const (
	targetLib     targetKind = iota // rnknn.DB in this process
	targetServer                    // rnknnd over loopback
	targetSharded                   // rnknnd -shards over loopback
)

// workload names one traffic mix. The why strings are BENCHMARK.json's.
type workload struct {
	name    string
	why     string
	target  targetKind
	clients int // closed-loop clients: 1 goroutine in-process, 2 keep-alive connections over HTTP
	// cat is the category the write probe mutates. Every mutation advances
	// its category's epoch and so strands that category's entries in the
	// result cache: where the reads rely on the cache, cat is a category
	// they do not query.
	cat catID
	// floorTail marks a workload whose slowest operations are the floor's
	// slowest: its p99 is scaled by the floor's p99, not by the floor's p50
	// as every other timing is. True of http-hot alone, whose operations —
	// hits on the result cache — do little a floor round trip does not.
	floorTail bool
	draw      func(*stream) op
}

var expandRotation = [...]rnknn.Method{rnknn.INE, rnknn.ROAD, rnknn.Gtree}

var workloads = []*workload{
	{
		name:    "lib-expand",
		why:     "in-process explicit INE/ROAD/Gtree/Range on sparse objects: all time is graph expansion, so kernel and layout work shows here and only here",
		target:  targetLib,
		clients: 1,
		cat:     cat(d001, 0),
		draw: func(s *stream) op {
			c, q := s.anyReplica(d001), s.anyVertex()
			if m := s.n % (len(expandRotation) + 1); m < len(expandRotation) {
				return op{kind: opKNN, cat: c, method: expandRotation[m], k: defaultK, q: q}
			}
			return op{kind: opRange, cat: c, q: q, radius: s.w.radius[d001]}
		},
	},
	{
		name:    "lib-auto",
		why:     "in-process MethodAuto over the density x k grid: microsecond ops, so planner, facade and the PHL/IER kernels dominate and expansion barely runs",
		target:  targetLib,
		clients: 1,
		cat:     cat(d001, 0),
		draw: func(s *stream) op {
			method := rnknn.MethodAuto
			if s.rng.Intn(namedEvery) == 0 {
				method = rnknn.IERPHL
			}
			return op{kind: opKNN, cat: s.anyReplica(s.rng.Intn(numDensities)), method: method, k: s.gridK(), q: s.anyVertex()}
		},
	},
	{
		name:      "http-hot",
		why:       "rnknnd /knn, Zipf keys that fit the result cache: serve hit path and net/http are all the work, search-side changes must not move it",
		target:    targetServer,
		clients:   2,
		cat:       coldCat,
		floorTail: true,
		draw:      drawHot,
	},
	{
		name:    "http-churn",
		why:     "the http-hot read stream with 2% object mutations stranding the cache: miss path, KNNPinned, cache put/evict and epoch derivation do the work",
		target:  targetServer,
		clients: 2,
		cat:     coldCat,
		draw: func(s *stream) op {
			if s.rng.Float64() < churnShare {
				return s.mutation(hotCat)
			}
			return drawHot(s)
		},
	},
	{
		name:    "http-sharded",
		why:     "rnknnd -shards, uniform keys far beyond the caches: the shard front (bounds, pruning, fan-out, merge) and the slowest opened shard set the time",
		target:  targetSharded,
		clients: 2,
		cat:     cat(d01, 0),
		draw: func(s *stream) op {
			c, q := s.anyReplica(d01), s.anyVertex()
			if s.rng.Float64() < rangeShare {
				return op{kind: opRange, cat: c, q: q, radius: s.w.radius[d01]}
			}
			return op{kind: opKNN, cat: c, method: rnknn.MethodAuto, k: s.gridK(), q: q}
		},
	},
	{
		name:    "http-batch",
		why:     "rnknnd /batch of 32 clustered kNN members: HTTP cost is amortised, so the JSON codec, member-wise cache, batch planner and multi-source kernels carry the time",
		target:  targetServer,
		clients: 2,
		cat:     cat(d001, 0),
		draw: func(s *stream) op {
			lo := s.w.cells[s.rng.Intn(len(s.w.cells))]
			verts := make([]int32, batchSize)
			for i := range verts {
				verts[i] = lo + int32(s.rng.Intn(int(s.w.span)))
			}
			return op{kind: opBatch, cat: s.anyReplica(d001), k: defaultK, verts: verts}
		},
	},
}

// hotCat is the one category http-hot and http-churn query: their key pool
// has to fit the result cache, so they stay on a single replica. coldCat is
// one of the same density that they never query.
var hotCat, coldCat = cat(d001, 0), cat(d001, 1)

func drawHot(s *stream) op {
	return op{kind: opKNN, cat: hotCat, method: rnknn.MethodAuto, k: defaultK, q: s.w.pool[s.zipf.Sample()]}
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}
