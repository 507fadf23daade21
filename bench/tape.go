package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"rnknn/internal/core"
	"rnknn/internal/knn"
	"rnknn/internal/serve"
	"rnknn/pkg/rnknn"
)

// The tape replay decomposes a workload's own operations by layer. Layers
// are only callable from outside, so an operation's child span is the same
// operation replayed one layer down: the first operations of one more
// client's stream (the tape) run single-threaded through every boundary
// that serves the workload, outermost first, one pass per layer, one span
// per call.
//
//	client   the workload's measured system: rnknnd over loopback, or the DB call
//	handler  internal/serve's handler called in this process (HTTP workloads)
//	shard    rnknn.ShardedDB (http-sharded)
//	db       rnknn.DB: KNNPinned / KNNAppend / RangeAppend / Batch.Run
//	session  core.Session of the method the DB resolved (not for batches)
//
// A layer's self time on an operation is its span minus its child's; an
// operation a layer answered itself (a cache hit) has no child.

// span is one call into one layer, times in ns since the replay began.
type span struct {
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"` // the layer whose span of this op caused this one
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	layerClient  = "client"
	layerHandler = "handler"
	layerShard   = "shard"
	layerDB      = "db"
	layerSession = "session"
)

const (
	tapeMax = 4096
	// tapeClient is the tape's client id: a stream of its own, so the
	// measured system meets the tape's operations for the first time.
	tapeClient = 1 << 16
	// probeClient is the write probe's.
	probeClient = 1 << 17
)

// tape is the replayed operations and what each layer pass recorded.
type tape struct {
	ops   []op
	epoch time.Time
	spans []span
	// dur[layer][i] is op i's span at the layer in ns; absent when the op
	// never reached the layer.
	dur map[string]map[int]float64
}

func newTape(w *world, wl *workload, seed int64, n int) *tape {
	t := &tape{ops: make([]op, n), epoch: time.Now(), dur: map[string]map[int]float64{}}
	st := newStream(w, wl, seed, tapeClient)
	for i := range t.ops {
		t.ops[i] = st.next()
	}
	return t
}

// pass replays the tape at one layer. call runs op i and reports whether
// the layer did the operation at all.
func (t *tape) pass(ctx context.Context, layer, parent string, call func(i int, o *op) (bool, error)) error {
	t.dur[layer] = map[int]float64{}
	for i := range t.ops {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, ok := t.dur[parent][i]; parent != "" && !ok {
			continue // the parent layer never ran this op, so nothing called down
		}
		start := time.Now()
		ran, err := call(i, &t.ops[i])
		end := time.Now()
		if err != nil {
			return fmt.Errorf("tape %s op %d: %w", layer, i, err)
		}
		if !ran {
			continue
		}
		t.dur[layer][i] = float64(end.Sub(start))
		t.spans = append(t.spans, span{Op: i, Layer: layer, Parent: parent, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	}
	return nil
}

// medianUS is the median span of a layer in µs, zero for a layer that never ran.
func (t *tape) medianUS(layer string) float64 {
	var ds []float64
	for _, d := range t.dur[layer] {
		ds = append(ds, d)
	}
	return median(ds) / 1e3
}

// selfUS is the median over the layer's spans of span minus child span, in µs.
func (t *tape) selfUS(layer, child string) float64 {
	var self []float64
	for i, d := range t.dur[layer] {
		self = append(self, d-t.dur[child][i]) // an absent child span is zero
	}
	return median(self) / 1e3
}

func (t *tape) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func kindOf(m rnknn.Method) core.MethodKind {
	for _, k := range fixtureKinds {
		if k.String() == m.String() {
			return k
		}
	}
	panic("rnbench: method outside the fixture: " + m.String())
}

// warm sends n operations of the warm-up's stream through s, so an
// in-process layer starts the tape with caches as full as the measured
// system's are after its warm-up.
func warm(ctx context.Context, s system, w *world, wl *workload, seed int64, n int) error {
	st := newStream(w, wl, seed+warmSeed, 0)
	var r reply
	for i := 0; i < n; i++ {
		o := st.next()
		var err error
		if o.isWrite() {
			_, err = s.mutate(ctx, &o)
		} else {
			err = s.do(ctx, &o, false, &r)
		}
		if err != nil {
			return err
		}
	}
	if o, ok := st.settle(); ok {
		_, err := s.mutate(ctx, &o)
		return err
	}
	return nil
}

// replayTape runs the tape through every layer that serves wl and reports
// the decomposition. sys is the workload's measured system, already warm.
func replayTape(ctx context.Context, wl *workload, w *world, m *model, sys system, dir string, seed int64, n int, put func(name string, value float64, unit string)) (*tape, error) {
	t := newTape(w, wl, seed, n)
	var r reply

	// client: the measured system. Its mutations go through the model, which
	// the run's verification still reads.
	err := t.pass(ctx, layerClient, "", func(_ int, o *op) (bool, error) {
		if o.isWrite() {
			_, err := m.mutate(o, func() (uint64, error) { return sys.mutate(ctx, o) })
			return true, err
		}
		return true, sys.do(ctx, o, false, &r)
	})
	if err != nil {
		return nil, err
	}

	// Every lower layer gets a fresh in-process copy of the system, so each
	// pass meets the same object sets and epochs in the same order.
	top := layerClient
	// searched(i) are the query vertices of op i whose answers the layers
	// above the DB did not produce themselves: all of them for the library,
	// the cache misses for a server.
	searched := func(i int) []int32 {
		if o := &t.ops[i]; o.kind == opBatch {
			return o.verts
		}
		return []int32{t.ops[i].q}
	}
	if wl.target != targetLib {
		lib, err := openLib(dir, w, nil)
		if err != nil {
			return nil, err
		}
		defer lib.close()
		var inproc *httpSystem
		if wl.target == targetSharded {
			sdb, err := openSharded(dir, w)
			if err != nil {
				return nil, err
			}
			defer sdb.Close()
			inproc = inProcess(serve.NewSharded(sdb, serve.Config{}).Handler(), true)
		} else {
			inproc = inProcess(serve.New(lib.db, serve.Config{}).Handler(), false)
		}
		if err := warm(ctx, inproc, w, wl, seed, 2*n); err != nil {
			return nil, err
		}
		all := searched
		missed := make([][]int32, n)
		err = t.pass(ctx, layerHandler, layerClient, func(i int, o *op) (bool, error) {
			if o.isWrite() {
				_, err := inproc.mutate(ctx, o)
				return true, err
			}
			err := inproc.do(ctx, o, false, &r)
			for j, v := range all(i) {
				if err == nil && !r.hit[j] {
					missed[i] = append(missed[i], v)
				}
			}
			return true, err
		})
		if err != nil {
			return nil, err
		}
		top = layerHandler
		searched = func(i int) []int32 { return missed[i] }
	}

	if wl.target == targetSharded {
		sdb, err := openSharded(dir, w)
		if err != nil {
			return nil, err
		}
		defer sdb.Close()
		err = t.pass(ctx, layerShard, top, func(i int, o *op) (bool, error) {
			if len(searched(i)) == 0 {
				return false, nil
			}
			inCat := rnknn.WithCategory(catNames[o.cat])
			var err error
			if o.kind == opRange {
				_, err = sdb.Range(ctx, o.q, rnknn.Dist(o.radius), inCat)
			} else {
				_, err = sdb.KNN(ctx, o.q, int(o.k), rnknn.WithMethod(o.method), inCat)
			}
			return true, err
		})
		if err != nil {
			return nil, err
		}
		top = layerShard
	}

	// db: a fresh DB. resolved[i] is the method it ran op i with, read from
	// Explain just before the call (for Auto the planner may move between
	// the two; rare, and it only mislabels one session span).
	lab, err := newLab(dir, w, seed)
	if err != nil {
		return nil, err
	}
	defer lab.close()
	if wl.target != targetLib {
		// The same warm-up the handler's DB got, so this DB's planner has
		// seen what that one had.
		if err := warm(ctx, &libSystem{db: lab.db}, w, wl, seed, 2*n); err != nil {
			return nil, err
		}
	}
	resolved := make([]rnknn.Method, n)
	var buf []rnknn.Result
	err = t.pass(ctx, layerDB, top, func(i int, o *op) (bool, error) {
		inCat := rnknn.WithCategory(catNames[o.cat])
		if o.isWrite() {
			_, err := (&libSystem{db: lab.db}).mutate(ctx, o)
			return true, err
		}
		if len(searched(i)) == 0 {
			return false, nil
		}
		var err error
		switch o.kind {
		case opRange:
			resolved[i] = rnknn.INE
			buf, err = lab.db.RangeAppend(ctx, o.q, rnknn.Dist(o.radius), buf[:0], inCat)
		case opBatch:
			b := lab.db.Batch()
			for _, v := range searched(i) {
				b.AddKNN(v, int(o.k), inCat) // no method, as in serve's /batch
			}
			_, err = b.Run(ctx)
		default:
			plan, perr := lab.db.Explain(o.q, int(o.k), rnknn.WithMethod(o.method), inCat)
			if perr != nil {
				return true, perr
			}
			resolved[i] = plan.Method
			if wl.target == targetLib {
				buf, err = lab.db.KNNAppend(ctx, o.q, int(o.k), buf[:0], rnknn.WithMethod(o.method), inCat)
			} else {
				_, _, err = lab.db.KNNPinned(ctx, o.q, int(o.k), rnknn.WithMethod(o.method), inCat)
			}
		}
		return true, err
	})
	if err != nil {
		return nil, err
	}

	// session: the resolved method's core.Session over the registered sets
	// (the few vertices a churn tape adds and removes are left out).
	err = t.pass(ctx, layerSession, layerDB, func(i int, o *op) (bool, error) {
		if o.isWrite() || o.kind == opBatch {
			return false, nil
		}
		s := lab.session(kindOf(resolved[i]), o.cat)
		if o.kind == opRange {
			buf = s.(knn.RangeMethod).RangeAppend(o.q, o.radius, buf[:0])
		} else {
			buf = s.KNNAppend(o.q, int(o.k), buf[:0])
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}

	put("tape.client_us", t.medianUS(layerClient), "us")
	put("tape.nethttp_self_us", 0, "us")
	put("tape.serve_self_us", 0, "us")
	put("tape.shard_self_us", 0, "us")
	switch wl.target {
	case targetServer:
		put("tape.nethttp_self_us", t.selfUS(layerClient, layerHandler), "us")
		put("tape.serve_self_us", t.selfUS(layerHandler, layerDB), "us")
	case targetSharded:
		put("tape.nethttp_self_us", t.selfUS(layerClient, layerHandler), "us")
		put("tape.serve_self_us", t.selfUS(layerHandler, layerShard), "us")
		put("tape.shard_self_us", t.selfUS(layerShard, layerDB), "us")
	}
	put("tape.db_us", t.medianUS(layerDB), "us")
	facade := 0.0
	if len(t.dur[layerSession]) > 0 { // nothing under Batch.Run is callable from outside
		facade = t.selfUS(layerDB, layerSession)
	}
	put("tape.facade_self_us", facade, "us")
	put("tape.method_us", t.medianUS(layerSession), "us")
	return t, nil
}
