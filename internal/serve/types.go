package serve

import (
	"rnknn/pkg/rnknn"
)

// The wire types are the one JSON vocabulary for query answers: the
// benchmark harness (bench/) and the tests decode into them, and
// cmd/knnquery's -json mode prints them, so scripting against any of those
// sees the same shape. rnknnd writes the /knn, /range and /batch bodies
// with the append encoder (encode.go), not from these types; they are its
// parity reference: each body must equal encoding/json's encoding of the
// wire type holding the same values, byte for byte. The other bodies
// (errors, /stats, /objects/*, the /monitor events) are these types,
// encoded by encoding/json.

// ResultJSON is one query answer on the wire.
type ResultJSON struct {
	// Vertex is the object vertex id.
	Vertex int32 `json:"vertex"`
	// Dist is the network distance from the query vertex (travel distance
	// or travel time, per the graph's weight view).
	Dist int64 `json:"dist"`
}

// Results converts library results to their wire form.
func Results(rs []rnknn.Result) []ResultJSON {
	out := make([]ResultJSON, len(rs))
	for i, r := range rs {
		out[i] = ResultJSON{Vertex: r.Vertex, Dist: int64(r.Dist)}
	}
	return out
}

// KNNResponse answers GET /knn (and knnquery -json prints the same shape).
type KNNResponse struct {
	// Query echoes the query vertex; K the requested neighbor count.
	Query int32 `json:"query"`
	K     int   `json:"k"`
	// Method is the method the request asked for ("Auto" when the planner
	// routed it).
	Method string `json:"method"`
	// Category is the object category searched.
	Category string `json:"category"`
	// Epoch is the category epoch the answer was computed from — the exact
	// object-set version, stamped by the search itself. Two responses with
	// the same (query, k, category, epoch) saw the same object set.
	Epoch uint64 `json:"epoch"`
	// Cached reports the answer was served from the result cache without
	// running a search session.
	Cached bool `json:"cached"`
	// LatencyMicros is the server-side handling time in microseconds.
	LatencyMicros int64 `json:"latency_us"`
	// Results are the neighbors in nondecreasing distance order.
	Results []ResultJSON `json:"results"`
}

// RangeResponse answers GET /range. Epoch and Cached carry the same
// guarantees as on KNNResponse: the answer was computed from exactly that
// object-set version, and Cached marks cache hits.
type RangeResponse struct {
	Query         int32        `json:"query"`
	Radius        int64        `json:"radius"`
	Category      string       `json:"category"`
	Epoch         uint64       `json:"epoch"`
	Cached        bool         `json:"cached"`
	LatencyMicros int64        `json:"latency_us"`
	Results       []ResultJSON `json:"results"`
}

// BatchRequest is the POST /batch body: a mixed list of kNN and range
// queries executed as one db.Batch.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchQuery is one query inside a batch: a kNN query when K > 0, a range
// query when Radius is set (exactly one of the two must be).
type BatchQuery struct {
	Query    int32  `json:"query"`
	K        int    `json:"k,omitempty"`
	Radius   *int64 `json:"radius,omitempty"`
	Method   string `json:"method,omitempty"`
	Category string `json:"category,omitempty"`
}

// BatchResponse answers POST /batch, one entry per query in request order.
type BatchResponse struct {
	Results []BatchResultJSON `json:"results"`
}

// BatchResultJSON is one batch query's outcome. Error carries per-query
// failures (validation, unknown category, cancellation); it is empty on
// success.
type BatchResultJSON struct {
	Query  int32  `json:"query"`
	Method string `json:"method,omitempty"`
	Error  string `json:"error,omitempty"`
	// Epoch is the category epoch the answer was computed from, with the
	// same guarantee as on KNNResponse.
	Epoch uint64 `json:"epoch,omitempty"`
	// Cached reports this member never ran a search: a result-cache hit or
	// a duplicate of an earlier member of the same batch.
	Cached bool `json:"cached,omitempty"`
	// Shared reports a shared-expansion group answered this member (see
	// rnknn.Batch).
	Shared        bool         `json:"shared,omitempty"`
	LatencyMicros int64        `json:"latency_us"`
	Results       []ResultJSON `json:"results"`
}

// ObjectsRequest is the POST /objects/insert and /objects/remove body.
type ObjectsRequest struct {
	Category string  `json:"category"`
	Vertices []int32 `json:"vertices"`
}

// ObjectsResponse reports the category state after the mutation.
type ObjectsResponse struct {
	Category string `json:"category"`
	// Epoch is the live epoch after the mutation (unchanged when the
	// mutation was a no-op).
	Epoch uint64 `json:"epoch"`
	// NumObjects is the live object count after the mutation.
	NumObjects int `json:"num_objects"`
}

// MonitorEventJSON is one result-set delta on the /monitor SSE stream:
// kind is "enter", "exit", or "dist_change". Dist is meaningful for enter
// and dist_change (distance from the step's refresh anchor).
type MonitorEventJSON struct {
	Kind   string `json:"kind"`
	Object int32  `json:"object"`
	Dist   int64  `json:"dist,omitempty"`
}

// MonitorStepJSON is one "step" event on the /monitor SSE stream: the
// step/epoch stamps, whether the step re-ran the search ("none" means the
// safe-region check alone proved the cached set exact), and the deltas
// versus the previous step (exits first; empty means no change).
type MonitorStepJSON struct {
	Step    int                `json:"step"`
	Vertex  int32              `json:"vertex"`
	Epoch   uint64             `json:"epoch"`
	Refresh string             `json:"refresh"`
	Events  []MonitorEventJSON `json:"events,omitempty"`
}

// MonitorStep converts a library monitor update to its wire form.
func MonitorStep(u rnknn.MonitorUpdate) MonitorStepJSON {
	out := MonitorStepJSON{Step: u.Step, Vertex: u.Vertex, Epoch: u.Epoch, Refresh: u.Refresh.String()}
	if len(u.Events) > 0 {
		out.Events = make([]MonitorEventJSON, len(u.Events))
		for i, e := range u.Events {
			out.Events[i] = MonitorEventJSON{Kind: e.Kind.String(), Object: e.Object, Dist: int64(e.Dist)}
		}
	}
	return out
}

// MonitorSummaryJSON is the "done" event closing a /monitor SSE stream:
// the session's step count and its avoided/re-run split — AvoidedRatio is
// the fraction of steps the safe-region check answered without a search.
type MonitorSummaryJSON struct {
	K            int     `json:"k"`
	Category     string  `json:"category"`
	Steps        int     `json:"steps"`
	Avoided      int     `json:"avoided"`
	Refreshes    int     `json:"refreshes"`
	AvoidedRatio float64 `json:"avoided_ratio"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// StatsResponse answers GET /stats: the serving layer's own counters, the
// served graph's shape (what a load generator needs to size its workload),
// and the library's Stats snapshot; over a shard set also the per-cell
// breakdown.
type StatsResponse struct {
	Server ServerStats `json:"server"`
	Graph  GraphJSON   `json:"graph"`
	DB     rnknn.Stats `json:"db"`
	// NumShards and Shards are present when the DB is a shard set.
	NumShards int              `json:"num_shards,omitempty"`
	Shards    []ShardStatsJSON `json:"shards,omitempty"`
}

// ShardedStatsResponse is StatsResponse, named for readers of a shard set's
// /stats.
type ShardedStatsResponse = StatsResponse

// ShardStatsJSON is one partition cell in a shard set's /stats. The cell has
// no serving stack of its own: of Server only Requests is set — the queries
// whose fan opened the cell — beside the objects it owns (default category).
type ShardStatsJSON struct {
	Server     ServerStats `json:"server"`
	NumObjects int         `json:"num_objects"`
}

// GraphJSON describes the served road network.
type GraphJSON struct {
	NumVertices int    `json:"num_vertices"`
	NumEdges    int    `json:"num_edges"`
	Weights     string `json:"weights"`
}

// ServerStats are the serving layer's counters. Cache hits are the queries
// the session pools never saw.
type ServerStats struct {
	// InFlight and MaxInFlight describe the admission semaphore.
	InFlight    int `json:"in_flight"`
	MaxInFlight int `json:"max_in_flight"`
	// Requests counts admitted query requests (knn, range, batch); Shed
	// counts requests refused with 429 at saturation.
	Requests uint64 `json:"requests"`
	Shed     uint64 `json:"shed"`
	// CacheHits/CacheMisses/CacheEvictions/CacheEntries describe the
	// epoch-keyed result cache. Entries under superseded epochs are not
	// invalidated explicitly — their keys become unreachable the moment the
	// epoch advances and age out of the LRU.
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	CacheEntries   int    `json:"cache_entries"`
	// Coalesced always reads 0: no request waits on another's search. The
	// field stays because the frozen benchmark harness subtracts it.
	Coalesced uint64 `json:"coalesced"`
	// Batches counts POST /batch requests accepted; BatchQueries their
	// member queries. BatchCacheHits counts members answered straight from
	// the result cache, and BatchShared members answered by a
	// shared-expansion group (the library's group split is under
	// db.batch).
	Batches        uint64 `json:"batches"`
	BatchQueries   uint64 `json:"batch_queries"`
	BatchCacheHits uint64 `json:"batch_cache_hits"`
	BatchShared    uint64 `json:"batch_shared"`
	// Panics counts requests whose handler panicked (a bug): each was
	// answered 500, or, for a /monitor stream already under way, ended.
	Panics uint64 `json:"panics"`
}
