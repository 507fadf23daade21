package rnknn

import (
	"sync/atomic"
	"time"
)

// IndexStats describes one built road-network index.
type IndexStats struct {
	// BuildTime is the wall-clock construction time paid at Open — or, when
	// Loaded is true, the snapshot decode time.
	BuildTime time.Duration
	// SizeBytes estimates the index's in-memory footprint.
	SizeBytes int
	// Loaded reports that the index came from a snapshot (OpenFromSnapshot
	// or a WithIndexCache hit) instead of being built.
	Loaded bool
}

// MethodStats aggregates the queries one method has served.
type MethodStats struct {
	// KNNQueries and RangeQueries count completed (non-errored,
	// non-cancelled) queries, each under the method that answered it.
	KNNQueries   uint64
	RangeQueries uint64
	// TotalLatency sums completed query latencies; divide by the query
	// count for the mean. MaxLatency is the worst single query.
	TotalLatency time.Duration
	MaxLatency   time.Duration
}

// BatchStats aggregates batch execution: how many batches ran and how
// their queries split between shared-expansion groups and individual
// fan-out (see Batch).
type BatchStats struct {
	// Batches counts Batch.Run calls that executed at least one query.
	Batches uint64
	// SharedGroups counts shared-expansion groups executed.
	SharedGroups uint64
	// SharedQueries counts queries answered inside shared groups.
	SharedQueries uint64
	// FanoutQueries counts batch queries that fanned out individually.
	FanoutQueries uint64
}

// batchCounters is the lock-free aggregate behind BatchStats.
type batchCounters struct {
	batches       atomic.Uint64
	sharedGroups  atomic.Uint64
	sharedQueries atomic.Uint64
	fanoutQueries atomic.Uint64
}

func (c *batchCounters) snapshot() BatchStats {
	return BatchStats{
		Batches:       c.batches.Load(),
		SharedGroups:  c.sharedGroups.Load(),
		SharedQueries: c.sharedQueries.Load(),
		FanoutQueries: c.fanoutQueries.Load(),
	}
}

// Stats is a point-in-time snapshot of the DB's observability counters.
type Stats struct {
	// Indexes maps index name ("Gtree", "PHL", ...) to its build cost.
	Indexes map[string]IndexStats
	// Methods maps method name to its query counters (methods with no
	// completed queries report zero counters).
	Methods map[string]MethodStats
	// Categories maps each registered object category to its live object
	// count.
	Categories map[string]int
	// Epochs maps each registered object category to its live epoch number
	// (how many set-changing mutations it has absorbed since registration).
	Epochs map[string]uint64
	// Monitor aggregates continuous-query work (see DB.Monitor): route
	// steps served, and the avoided/re-run split.
	Monitor MonitorStats
	// Batch aggregates batch execution (see DB.Batch): shared-expansion
	// groups versus individual fan-out.
	Batch BatchStats
	// Shards has one entry per partition cell of a shard set (see
	// OpenSharded); empty on an ordinary DB.
	Shards []ShardStats
}

// ShardStats describes one partition cell of a shard set.
type ShardStats struct {
	// Opened counts the searches that opened this cell: one per query whose
	// bound-pruned fan or lazy merge reached it.
	Opened uint64
	// Categories maps each registered object category to the live objects
	// this cell owns.
	Categories map[string]int
}

// counters is one method's lock-free aggregate.
type counters struct {
	knnQueries   atomic.Uint64
	rangeQueries atomic.Uint64
	totalNanos   atomic.Int64
	maxNanos     atomic.Int64
}

func (c *counters) record(d time.Duration, isRange bool) {
	if isRange {
		c.rangeQueries.Add(1)
	} else {
		c.knnQueries.Add(1)
	}
	c.totalNanos.Add(int64(d))
	for {
		cur := c.maxNanos.Load()
		if int64(d) <= cur || c.maxNanos.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

func (c *counters) snapshot() MethodStats {
	return MethodStats{
		KNNQueries:   c.knnQueries.Load(),
		RangeQueries: c.rangeQueries.Load(),
		TotalLatency: time.Duration(c.totalNanos.Load()),
		MaxLatency:   time.Duration(c.maxNanos.Load()),
	}
}

// registry holds one counters slot per method; slots for disabled methods
// exist but stay zero (except INE's, which counts the range queries INE
// answers even when it is not an enabled kNN method).
type registry struct {
	perMethod [numMethods]counters
}

func (r *registry) recordKNN(m Method, d time.Duration) { r.perMethod[m].record(d, false) }

func (r *registry) recordRange(m Method, d time.Duration) { r.perMethod[m].record(d, true) }

// Stats returns a snapshot of index build costs, per-method query counters
// and live category sizes. Safe for concurrent use; counters are read
// atomically but not as one consistent cut.
func (db *DB) Stats() Stats {
	s := Stats{
		Indexes:    map[string]IndexStats{},
		Methods:    map[string]MethodStats{},
		Categories: map[string]int{},
		Epochs:     map[string]uint64{},
		Monitor:    db.mon.snapshot(),
		Batch:      db.batchStats.snapshot(),
	}
	for name, info := range db.eng.BuiltIndexes() {
		s.Indexes[name] = IndexStats{BuildTime: info.BuildTime, SizeBytes: info.SizeBytes, Loaded: info.Loaded}
	}
	for _, m := range db.methods {
		s.Methods[m.String()] = db.stats.perMethod[m].snapshot()
	}
	// INE may answer range queries while not an enabled kNN method.
	if !db.enabled[INE] {
		if ms := db.stats.perMethod[INE].snapshot(); ms.RangeQueries > 0 {
			s.Methods[INE.String()] = ms
		}
	}
	if t := db.shards; t != nil {
		s.Shards = make([]ShardStats, len(t.cells))
		for i := range s.Shards {
			s.Shards[i] = ShardStats{Opened: t.opened[i].Load(), Categories: map[string]int{}}
		}
	}
	db.mu.RLock()
	for name, cat := range db.cats {
		if ep := cat.live.Load(); ep != nil {
			s.Categories[name] = ep.objects
			s.Epochs[name] = ep.n
			for i := range s.Shards {
				s.Shards[i].Categories[name] = ep.parts[i].Objs.Len()
			}
		}
	}
	db.mu.RUnlock()
	return s
}
