package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rnknn/internal/knn"
)

const (
	keepEvery = 64  // every 64th operation's answers are kept for verification
	keepLimit = 512 // answers kept per client, so checking stays a fraction of a run
	batchKeep = 4   // members kept of a kept batch
)

// window is one slice of a closed loop: what the clients completed in it.
type window struct {
	elapsed time.Duration // the slice's start to the end of its last operation
	ops     int           // operations completed, reads and the stream's own mutations
	reads   []uint32      // read-op latencies, ns
	writes  []uint32      // latencies of the mutations the workload's stream drew, ns
	probe   []uint32      // latencies of the write-probe burst issued just before the slice, ns
	floor   floorSample   // the floor traffic run just before the slice
}

func (w *window) rate() float64 { return float64(w.ops) / w.elapsed.Seconds() }

// loopStats is what one closed loop recorded.
type loopStats struct {
	windows   []window
	attempted int
	failed    int
	answers   int // query answers received (a batch counts its members)
	kept      []answer
	firstErr  error
}

func (ls *loopStats) fail(err error) {
	ls.failed++
	if ls.firstErr == nil {
		ls.firstErr = err
	}
}

func nanos(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// warmSeed offsets the seed of the warm-up's streams, so the timed run's
// operations are not the ones the warm-up just left in every cache.
const warmSeed = 1 << 32

// warmUp runs the workload's loop for d and discards what it recorded: it
// lets caches fill and the planner's latency averages settle.
func warmUp(ctx context.Context, wl *workload, w *world, sys system, m *model, seed int64, d time.Duration) {
	loop{wl: wl, w: w, sys: sys, m: m, seed: seed + warmSeed, length: d, windows: 1}.run(ctx)
}

const (
	// probeBurst is the mutations per write-probe burst: an even number, so
	// a burst's last remove undoes its last insert.
	probeBurst = 32
	// floorSlice is how long the floor traffic runs before each window.
	floorSlice = 40 * time.Millisecond
)

// loop describes one closed loop.
type loop struct {
	wl      *workload
	w       *world
	sys     system
	m       *model
	seed    int64
	length  time.Duration // of one window
	windows int
	probe   *stream // when not nil, a write-probe burst drawn from it precedes every window
	floor   *floor  // when not nil, a slice of floor traffic precedes every window
}

// client is one closed-loop client's state; ls is its own, merged into the
// loop's after every window.
type client struct {
	st *stream
	r  reply
	ls loopStats
	w  window
}

// run drives l.sys with l.wl.clients clients for l.windows windows, each
// client issuing its next operation as soon as the previous one returned. No
// operation starts after its window's end; the one in flight then is waited
// for and counts, and the window's elapsed time runs to its end. Between
// windows the clients rest, and the write-probe burst and the floor slice,
// where the loop has them, each run alone.
func (l loop) run(ctx context.Context) loopStats {
	wl, sys, m := l.wl, l.sys, l.m
	clients := make([]client, wl.clients)
	for id := range clients {
		clients[id].st = newStream(l.w, wl, l.seed, id)
	}
	total := loopStats{windows: make([]window, l.windows)}
	for i := 0; i < l.windows && ctx.Err() == nil; i++ {
		win := &total.windows[i]
		if l.probe != nil {
			win.probe = writeBurst(ctx, wl, sys, m, l.probe, probeBurst, &total)
		}
		if l.floor != nil {
			var err error
			if win.floor, err = l.floor.run(ctx, wl.clients, floorSlice); err != nil {
				// A run whose yardstick broke cannot be read: it fails.
				total.attempted++
				total.fail(err)
			}
		}
		start := time.Now()
		end := start.Add(l.length)
		var wg sync.WaitGroup
		for id := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				c.run(ctx, sys, m, start, end)
			}(&clients[id])
		}
		wg.Wait()
		for id := range clients {
			c := &clients[id]
			win.elapsed = max(win.elapsed, c.w.elapsed)
			win.ops += c.w.ops
			win.reads = append(win.reads, c.w.reads...)
			win.writes = append(win.writes, c.w.writes...)
			c.w = window{reads: c.w.reads[:0], writes: c.w.writes[:0]}
		}
	}
	for id := range clients {
		c := &clients[id]
		// Outside the books. It fails only when the run is cancelled.
		if o, ok := c.st.settle(); ok {
			_, _ = m.mutate(&o, func() (uint64, error) { return sys.mutate(ctx, &o) })
		}
		total.attempted += c.ls.attempted
		total.failed += c.ls.failed
		total.answers += c.ls.answers
		total.kept = append(total.kept, c.ls.kept...)
		if total.firstErr == nil {
			total.firstErr = c.ls.firstErr
		}
	}
	return total
}

// run is one client's share of one window.
func (c *client) run(ctx context.Context, sys system, m *model, start, end time.Time) {
	for ctx.Err() == nil {
		begin := time.Now()
		if !begin.Before(end) {
			return
		}
		o := c.st.next()
		keep := c.st.n%keepEvery == 0 && len(c.ls.kept) < keepLimit
		var err error
		var elapsed time.Duration
		if o.isWrite() {
			elapsed, err = m.mutate(&o, func() (uint64, error) { return sys.mutate(ctx, &o) })
		} else {
			err = sys.do(ctx, &o, keep, &c.r)
			elapsed = time.Since(begin)
		}
		c.w.elapsed = time.Since(start)
		c.ls.attempted++
		if err != nil {
			c.ls.fail(err)
			continue
		}
		c.w.ops++
		if o.isWrite() {
			c.w.writes = append(c.w.writes, nanos(elapsed))
			continue
		}
		c.w.reads = append(c.w.reads, nanos(elapsed))
		if o.kind == opBatch {
			c.ls.answers += len(o.verts)
		} else {
			c.ls.answers++
		}
		if keep {
			c.ls.keep(c.r.answers)
		}
	}
}

// keep copies answers out of the reply (whose buffers the next operation
// reuses); of a batch it keeps the first batchKeep members.
func (ls *loopStats) keep(answers []answer) {
	if len(answers) > batchKeep {
		answers = answers[:batchKeep]
	}
	for _, a := range answers {
		a.results = append([]knn.Result(nil), a.results...)
		ls.kept = append(ls.kept, a)
	}
}

// tally folds the loop's operation counts and first error into res and rd.
func tally(ls *loopStats, res *result, rd *runDetail) {
	res.Attempted += ls.attempted
	res.Failed += ls.failed
	if ls.firstErr != nil {
		rd.note(ls.firstErr.Error())
	}
}

// verify checks the kept answers against brute force, counts mismatches as
// failures, and closes the run's books.
func verify(m *model, kept []answer, workers int, res *result, rd *runDetail) {
	if mismatches := m.countMismatches(kept, workers); mismatches > 0 {
		res.Failed += mismatches
		rd.note(fmt.Sprintf("%d of %d checked answers differ from brute force", mismatches, len(kept)))
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rd.Attempted, rd.Failed, rd.Checked = res.Attempted, res.Failed, len(kept)
}

// writeBurst issues n alternating insert/remove operations on the
// workload's probe category, one at a time on the otherwise resting system,
// books them in ls and returns their latencies in ns.
func writeBurst(ctx context.Context, wl *workload, sys system, m *model, st *stream, n int, ls *loopStats) []uint32 {
	lat := make([]uint32, 0, n)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		o := st.mutation(wl.cat)
		elapsed, err := m.mutate(&o, func() (uint64, error) { return sys.mutate(ctx, &o) })
		ls.attempted++
		if err != nil {
			ls.fail(err)
			continue
		}
		lat = append(lat, nanos(elapsed))
	}
	return lat
}

func sortU32(s []uint32) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// percentile returns the exact p-th percentile (nearest rank) of sorted
// samples: the smallest sample with at least p percent of samples at or
// below it. Zero when there are none.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The small subtraction keeps 99.9 % of 1,000 at rank 999, which
	// floating point would otherwise round up to 999.0000000000001.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// median of values, the mean of the middle two for an even count.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quietHalf returns, in order of time, the indices of the half of the
// windows with the highest operation rate (the odd one out is kept) — the
// half of the run the machine disturbed least. This box is a few cores of a
// shared host whose speed sags for seconds at a time; a median over all
// windows still carries half of every sag, the quiet half carries none of a
// sag that lasts under half the run. A slower program is slower in every
// window, so it reads slower here too; what the selection costs is a fixed
// optimism of a few per cent, the same on both sides of a comparison.
// Windows without a completed operation are never kept.
func quietHalf(windows []window) []int {
	var order []int
	for i := range windows {
		if windows[i].ops > 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return windows[order[a]].rate() > windows[order[b]].rate() })
	order = order[:(len(order)+1)/2]
	sort.Ints(order)
	return order
}

// pooled is the kept windows taken as one measurement: their operations
// over their elapsed time, and their latency samples sorted together.
type pooled struct {
	rate                 float64 // operations per second
	reads, writes, probe []uint32
	floorRate            float64 // floor round trips per second
	floor                []uint32
}

func pool(windows []window, keep []int) pooled {
	var p pooled
	var ops int
	var elapsed, floorElapsed time.Duration
	for _, i := range keep {
		w := &windows[i]
		ops += w.ops
		elapsed += w.elapsed
		floorElapsed += w.floor.elapsed
		p.floor = append(p.floor, w.floor.lat...)
		p.reads = append(p.reads, w.reads...)
		p.writes = append(p.writes, w.writes...)
		p.probe = append(p.probe, w.probe...)
	}
	if elapsed > 0 {
		p.rate = float64(ops) / elapsed.Seconds()
	}
	if floorElapsed > 0 {
		p.floorRate = float64(len(p.floor)) / floorElapsed.Seconds()
	}
	sortU32(p.reads)
	sortU32(p.writes)
	sortU32(p.probe)
	sortU32(p.floor)
	return p
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// spread the benchmark contract bounds. It needs at least two values.
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}
