package rnknn

import (
	"context"
	"iter"
	"time"

	"rnknn/internal/core"
)

// KNNSeq answers the same query as KNN but streams each neighbor as it is
// confirmed, instead of buffering all k: ranging over the sequence sees
// the first neighbor as soon as the method finalizes it — for INE and the
// other expansion methods that is long before the k-th is found. Results
// arrive in nondecreasing distance order, and a fully consumed stream is
// exactly KNN's answer.
//
//	for r, err := range db.KNNSeq(ctx, q, 10) {
//		if err != nil { ... }          // validation or ctx error; stream ends
//		serve(r)
//		if enough() { break }          // stops the underlying expansion
//	}
//
// The yielded error is non-nil on at most the final pair: invalid input
// yields one typed-error pair and ends, and if ctx is cancelled mid-stream
// the expansion stops and the stream ends with (Result{}, ctx.Err()) after
// whatever was already streamed. Breaking out of the loop early abandons
// the rest of the search immediately and returns the pooled session; the
// sequence is single-use but cheap to recreate.
//
// Every method streams natively: each confirmed neighbor is yielded
// mid-search. Safe for unbounded concurrent callers; only fully consumed
// streams are recorded in Stats.
func (db *DB) KNNSeq(ctx context.Context, q int32, k int, opts ...QueryOption) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		qr := knnQuery(q, k, opts)
		ep, m, err := db.prepare(ctx, &qr)
		if err != nil {
			yield(Result{}, err)
			return
		}
		consumerDone := false
		// elapsed accumulates only time spent inside the method: the clock
		// pauses around each yield so consumer loop-body work does not
		// inflate Stats.
		var elapsed time.Duration
		segment := time.Now()
		emit := func(r Result) bool {
			elapsed += time.Since(segment)
			defer func() { segment = time.Now() }()
			// The interrupt hook polls only every so many search steps;
			// checking here keeps cancellation ahead of result delivery.
			if ctx.Err() != nil {
				return false
			}
			if !yield(r, nil) {
				consumerDone = true
				return false
			}
			return true
		}
		// One cell streams straight off its session; several merge their
		// per-cell streams lazily (mergeCells).
		if len(ep.parts) == 1 {
			err = db.streamPart(ctx, &qr, ep.parts[0], m, emit)
		} else {
			err = db.mergeCells(ctx, &qr, ep, m, emit)
		}
		elapsed += time.Since(segment)
		if consumerDone {
			return
		}
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			yield(Result{}, err)
			return
		}
		db.stats.recordKNN(m, elapsed)
	}
}

// streamPart runs one streaming search of qr over the part b on a pooled
// session of method m, handing each confirmed neighbor to emit until the
// scan ends, emit returns false, or ctx stops it.
func (db *DB) streamPart(ctx context.Context, qr *query, b *core.Binding, m Method, emit func(Result) bool) error {
	ps, err := db.pools[m].get(b)
	if err != nil {
		return err
	}
	ps.arm(ctx)
	// The deferred release covers every exit: normal completion, early
	// consumer break, and panics in the consumer's loop body unwinding
	// through this frame.
	defer func() {
		ps.disarm()
		db.pools[m].put(ps)
	}()
	ps.sess.KNNStream(qr.v, qr.k, emit)
	return nil
}
