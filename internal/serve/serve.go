// Package serve is the network serving layer over rnknn.DB: the HTTP/JSON
// front end cmd/rnknnd mounts, turning the in-process query library into a
// service that survives heavy traffic by shedding load in two layers,
// cheapest first — the same two layers whether the database is an
// ordinary DB or a shard set (which is a DB too; see rnknn.OpenSharded):
//
//	request ──► admission ──► result cache ──► session pools
//	             (429 when     (hit: no          (db.KNNPinned,
//	              saturated)    session runs)     then cache.put)
//
// Admission is a no-queue counting semaphore: a saturated server answers
// 429 immediately instead of building a backlog. The result cache is a
// sharded LRU keyed on (vertex, k, category, epoch) — the epoch comes from
// the dynamic object store's versioning, so object churn invalidates every
// affected entry exactly and for free: mutation advances the epoch, lookup
// keys computed from the live epoch can no longer reach entries stamped
// with the old one, and the orphaned entries age out of the LRU. There are
// no TTLs and no invalidation messages, and a cached answer can never be
// stale: an entry stamped with epoch E is only ever served to a reader that
// observed epoch E. The argument does not care how many partition cells the
// category spans: an epoch is one counter versioning every cell, a search
// answers from exactly the epoch it pinned, and the cache holds the merged
// answer. Identical concurrent misses are independent: each runs its own
// search and stores the same answer, and the next request hits it — no
// request ever waits on another (a single-flight layer was measured at
// <= 0.83 % of misses and deleted; see ARCHITECTURE.md).
//
// Both /knn and /range ride the cache (kNN entries carry radius -1, range
// entries k 0, so the key spaces are disjoint); /monitor streams one
// db.Monitor session as Server-Sent Events, holding a single admission
// slot for the session's lifetime and bypassing the cache (deltas are
// per-session state — see monitor.go). /batch rides the same layers
// member-wise — per-member cache lookups, duplicate keys inside the batch
// collapsed — and then executes its distinct misses as ONE db.Batch. A
// member that names no method is planned like a /knn request without one
// (MethodAuto), and the grouping planner runs same-leaf clusters of
// INE-resolved members through shared expansions (see rnknn.Batch).
//
// A panic in a query or mutation handler is a bug; it is contained to its
// request, which answers 500, and counted (ServerStats.Panics). Batch.Run
// contains panics on its own worker goroutines, which no handler's recover
// reaches.
//
// A handler parses its query string once, and the /knn, /range and /batch
// bodies are appended straight from the library's results, with no
// reflection (encode.go), byte-identical to encoding/json's encoding of the
// wire types.
//
// Queries and mutations take separate paths on purpose (the HTAP lesson:
// co-designed, not shared): /objects/insert and /objects/remove bypass
// admission and the cache entirely — churn must keep landing even when the
// read path is saturated, because churn is what retires stale cache
// entries.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"rnknn/pkg/rnknn"
)

// Config sizes the serving layers.
type Config struct {
	// MaxInFlight bounds concurrently admitted query requests (/knn, /range,
	// /batch); excess requests are answered 429 immediately. <= 0 means the
	// default 256.
	MaxInFlight int
	// CacheEntries bounds the result cache (total entries across its shards).
	// 0 means the default 4096; negative disables caching.
	CacheEntries int
}

const (
	defaultMaxInFlight  = 256
	defaultCacheEntries = 4096
	// maxBatch bounds the queries accepted in one /batch request.
	maxBatch = 4096
	// maxBodyBytes bounds a POST body (/batch, /objects/*) before it is
	// decoded: room for maxBatch members or a six-figure vertex list.
	maxBodyBytes = 4 << 20
)

// errSaturated reports a full admission semaphore; writeError maps it to 429.
var errSaturated = errors.New("server saturated: max in-flight queries reached")

// Server serves one rnknn.DB over HTTP: its admission semaphore, its
// epoch-keyed result cache and its counters. Create with New, mount
// Handler. A shard set is served like any other DB: its queries fan over the
// cells inside the library, under the one admission slot and cache entry of
// the request.
type Server struct {
	db       *rnknn.DB
	adm      *admission
	cache    *resultCache
	requests atomic.Uint64
	// Batch-path counters: requests, member queries, members answered from
	// the cache, and members answered by a shared-expansion group.
	batches        atomic.Uint64
	batchQueries   atomic.Uint64
	batchCacheHits atomic.Uint64
	batchShared    atomic.Uint64
	panics         atomic.Uint64
	mux            *http.ServeMux
	// gate, when non-nil, runs on the cache-miss path immediately before
	// the underlying query — a test hook that lets tests hold queries in
	// flight deterministically.
	gate func()
}

// New builds a Server over db with the given sizing.
func New(db *rnknn.DB, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = defaultCacheEntries
	}
	s := &Server{
		db:    db,
		adm:   newAdmission(cfg.MaxInFlight),
		cache: newResultCache(cfg.CacheEntries),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /knn", s.admitted(s.handleKNN))
	s.mux.HandleFunc("GET /range", s.admitted(s.handleRange))
	s.mux.HandleFunc("GET /monitor", s.admitted(s.handleMonitor))
	s.mux.HandleFunc("POST /batch", s.admitted(s.handleBatch))
	s.mux.HandleFunc("POST /objects/insert", s.handleObjects(db.InsertObjects))
	s.mux.HandleFunc("POST /objects/remove", s.handleObjects(db.RemoveObjects))
	return s
}

// NewSharded is New: a shard set is a DB.
func NewSharded(sdb *rnknn.ShardedDB, cfg Config) *Server { return New(sdb, cfg) }

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the serving layer's counters (the GET /stats "server"
// section).
func (s *Server) Stats() ServerStats {
	return ServerStats{
		InFlight:       s.adm.inFlight(),
		MaxInFlight:    s.adm.max(),
		Requests:       s.requests.Load(),
		Shed:           s.adm.shed.Load(),
		CacheHits:      s.cache.hits.Load(),
		CacheMisses:    s.cache.misses.Load(),
		CacheEvictions: s.cache.evictions.Load(),
		CacheEntries:   s.cache.len(),
		Batches:        s.batches.Load(),
		BatchQueries:   s.batchQueries.Load(),
		BatchCacheHits: s.batchCacheHits.Load(),
		BatchShared:    s.batchShared.Load(),
		Panics:         s.panics.Load(),
	}
}

// admitted wraps a query handler in the admission semaphore: acquire or
// answer 429 now, never queue.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.adm.tryAcquire() {
			writeError(w, errSaturated)
			return
		}
		defer s.adm.release()
		defer s.contain(w)
		s.requests.Add(1)
		h(w, r)
	}
}

// contain, deferred by a handler, turns a panic of its request into a 500,
// logged with its stack and counted in ServerStats.Panics, so the server
// goes on serving. (net/http would recover the goroutine too, but it
// answers nothing and counts nothing: the client sees its connection drop.)
func (s *Server) contain(w http.ResponseWriter) {
	if p := recover(); p != nil {
		s.panicked(p)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "internal error"})
	}
}

// panicked counts and logs a recovered panic p.
func (s *Server) panicked(p any) {
	s.panics.Add(1)
	log.Printf("serve: handler panicked: %v\n%s", p, debug.Stack())
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStats reports the serving counters, the graph's shape and the
// library's Stats; over a shard set also, per partition cell, how many
// queries opened it and the default-category objects it owns.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	g := s.db.Graph()
	out := StatsResponse{
		Server: s.Stats(),
		Graph:  GraphJSON{NumVertices: g.NumVertices(), NumEdges: g.NumEdges() / 2, Weights: g.Kind.String()},
		DB:     s.db.Stats(),
	}
	out.NumShards = len(out.DB.Shards)
	for _, sh := range out.DB.Shards {
		out.Shards = append(out.Shards, ShardStatsJSON{
			Server:     ServerStats{Requests: sh.Opened},
			NumObjects: sh.Categories[rnknn.DefaultCategory],
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// cachedQuery is one /knn or /range request as the cache sees it. kNN keys
// carry radius -1 and range keys k 0, which keeps the two key spaces
// disjoint in the shared cache.
type cachedQuery struct {
	isRange  bool
	vertex   int32
	k        int32
	radius   int64
	method   rnknn.Method
	category string
}

func (cq cachedQuery) key(epoch uint64) cacheKey {
	return cacheKey{vertex: cq.vertex, k: cq.k, radius: cq.radius, epoch: epoch, category: cq.category}
}

// query answers cq through the cache (the caller holds an
// admission slot): the lookup key pins the epoch the reader observed, so a
// hit is an answer computed from exactly that object set; a miss runs the
// search and stores its answer. It returns the epoch stamped on the answer
// and whether it was a cache hit.
func (s *Server) query(ctx context.Context, cq cachedQuery) ([]rnknn.Result, uint64, bool, error) {
	epoch, err := s.db.Epoch(cq.category)
	if err != nil {
		return nil, 0, false, err
	}
	if res, ok := s.cache.get(cq.key(epoch)); ok {
		return res, epoch, true, nil
	}
	if s.gate != nil {
		s.gate()
	}
	var res []rnknn.Result
	if cq.isRange {
		res, epoch, err = s.db.RangePinned(ctx, cq.vertex, rnknn.Dist(cq.radius), rnknn.WithCategory(cq.category))
	} else {
		res, epoch, err = s.db.KNNPinned(ctx, cq.vertex, int(cq.k), rnknn.WithMethod(cq.method), rnknn.WithCategory(cq.category))
	}
	if err != nil {
		return nil, 0, false, err
	}
	// Store under the epoch the search pinned — possibly newer than the
	// lookup epoch when churn raced this request; never older.
	s.cache.put(cq.key(epoch), res)
	return res, epoch, false, nil
}

// handleKNN is the cached read path: epoch-keyed lookup, then a search on
// miss. The answer's epoch stamp always names the exact object set it was
// computed from.
func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	params := r.URL.Query()
	qv, err := int32Param(params, "q", -1)
	if err != nil {
		writeError(w, err)
		return
	}
	k, err := int32Param(params, "k", 10)
	if err != nil {
		writeError(w, err)
		return
	}
	method, err := parseMethod(params.Get("method"))
	if err != nil {
		writeError(w, err)
		return
	}
	s.answer(w, r, start, cachedQuery{vertex: qv, k: k, radius: -1, method: method, category: categoryParam(params)})
}

// handleRange is the cached range path, the same two layers as /knn.
// Range entries share the kNN cache, so repeated radii — a fixed-radius
// mix, map tiles at zoom levels — hit without a session, and object churn
// retires range answers by the same epoch mechanism.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	params := r.URL.Query()
	qv, err := int32Param(params, "q", -1)
	if err != nil {
		writeError(w, err)
		return
	}
	radius, err := intParam(params, "radius", -1)
	if err != nil {
		writeError(w, err)
		return
	}
	s.answer(w, r, start, cachedQuery{isRange: true, vertex: qv, radius: int64(radius), category: categoryParam(params)})
}

// answer runs cq through the cache path and writes its KNNResponse or
// RangeResponse body; start is when the request's handling began.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, start time.Time, cq cachedQuery) {
	res, epoch, cached, err := s.query(r.Context(), cq)
	if err != nil {
		writeError(w, err)
		return
	}
	b := bodyPool.Get().(*[]byte)
	*b = appendAnswer((*b)[:0], cq, epoch, cached, time.Since(start).Microseconds(), res)
	writeBody(w, b)
}

// handleBatch decodes a mixed kNN/range batch and runs it through the same
// two layers as the single-query endpoints, then one db.Batch:
//
//  1. Every member does an epoch-keyed cache lookup; hits never reach a
//     session.
//  2. Members that miss on a key an earlier member of this batch already
//     missed on are its duplicates and run nothing.
//  3. The distinct misses (plus unkeyable members — unknown categories and
//     other per-member errors the library reports) execute as ONE db.Batch,
//     each with its own method or, naming none, MethodAuto — the planner
//     picks per member exactly as for /knn — so same-leaf clusters that
//     resolve to INE ride the shared-expansion path; each answer is stored
//     under the epoch the search pinned and copied to its duplicates.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, "batch", &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "batch has no queries"})
		return
	}
	if len(req.Queries) > maxBatch {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("batch of %d queries exceeds limit %d", len(req.Queries), maxBatch)})
		return
	}
	n := len(req.Queries)
	methods := make([]rnknn.Method, n)
	for i, q := range req.Queries {
		m, err := parseMethod(q.Method)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("query %d: %v", i, err)})
			return
		}
		methods[i] = m
		if q.Radius != nil && q.K > 0 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("query %d: both k and radius set", i)})
			return
		}
		// The cache keys k as 32 bits; a k that does not fit must not alias
		// one that does.
		if !fits32(q.K) {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("query %d: k %d does not fit 32 bits", i, q.K)})
			return
		}
	}
	s.batches.Add(1)
	s.batchQueries.Add(uint64(n))

	// Epoch-keyed cache lookups per member. An epoch lookup that fails
	// (unknown category) leaves the member unkeyed; the inner batch reports
	// the library's error for it. cached marks the members that ran no
	// search.
	out := make([]rnknn.BatchResult, n)
	cached := make([]bool, n)
	keys := make([]cacheKey, n)
	keyed := make([]bool, n)
	epochs := map[string]uint64{}
	first := map[cacheKey]int{} // distinct missed key -> the member that runs it
	var run, dups []int         // members this request executes; members first[key] answers
	for i, q := range req.Queries {
		category := q.Category
		if category == "" {
			category = rnknn.DefaultCategory
		}
		epoch, ok := epochs[category]
		if !ok {
			var err error
			if epoch, err = s.db.Epoch(category); err != nil {
				run = append(run, i)
				continue
			}
			epochs[category] = epoch
		}
		if q.Radius != nil {
			keys[i] = cacheKey{vertex: q.Query, radius: *q.Radius, epoch: epoch, category: category}
		} else {
			keys[i] = cacheKey{vertex: q.Query, k: int32(q.K), radius: -1, epoch: epoch, category: category}
		}
		keyed[i] = true
		if res, ok := s.cache.get(keys[i]); ok {
			s.batchCacheHits.Add(1)
			out[i] = rnknn.BatchResult{Query: q.Query, Method: methods[i], Epoch: epoch, Results: res}
			cached[i] = true
			continue
		}
		if _, ok := first[keys[i]]; ok {
			dups = append(dups, i)
			continue
		}
		first[keys[i]] = i
		run = append(run, i)
	}

	// One db.Batch over the distinct misses — same-leaf clusters among them
	// share expansions — then store each answer under the epoch it pinned.
	if len(run) > 0 {
		b := s.db.Batch()
		for _, i := range run {
			q := req.Queries[i]
			opts := []rnknn.QueryOption{rnknn.WithMethod(methods[i])}
			if q.Category != "" {
				opts = append(opts, rnknn.WithCategory(q.Category))
			}
			if q.Radius != nil {
				b.AddRange(q.Query, rnknn.Dist(*q.Radius), opts...)
			} else {
				b.AddKNN(q.Query, q.K, opts...)
			}
		}
		if s.gate != nil {
			s.gate()
		}
		// Run only errors on ctx expiry, and then every member result carries
		// the error.
		results, _ := b.Run(r.Context())
		for j, i := range run {
			br := results[j]
			if br.Shared {
				s.batchShared.Add(1)
			}
			if keyed[i] && br.Err == nil {
				k := keys[i]
				k.epoch = br.Epoch // possibly newer than the lookup epoch; never older
				s.cache.put(k, br.Results)
			}
			out[i] = br
		}
		for _, i := range dups {
			out[i] = out[first[keys[i]]]
			cached[i] = true
		}
	}
	b := bodyPool.Get().(*[]byte)
	*b = appendBatch((*b)[:0], out, cached)
	writeBody(w, b)
}

// decodeBody decodes a POST body of at most maxBodyBytes into v and reports
// whether it could; if not it has answered 413 for a longer body and 400
// for a malformed one.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, ErrorResponse{Error: "bad " + what + " body: " + err.Error()})
	return false
}

// handleObjects wraps one mutation (InsertObjects or RemoveObjects). The
// mutation path deliberately skips admission and the cache — see the package
// comment: the epoch advances, retiring exactly the category's cache entries.
func (s *Server) handleObjects(mutate func(string, []int32) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer s.contain(w)
		var req ObjectsRequest
		if !decodeBody(w, r, "objects", &req) {
			return
		}
		if req.Category == "" {
			req.Category = rnknn.DefaultCategory
		}
		if err := mutate(req.Category, req.Vertices); err != nil {
			writeError(w, err)
			return
		}
		epoch, err := s.db.Epoch(req.Category)
		if err != nil {
			writeError(w, err)
			return
		}
		n, _ := s.db.NumObjects(req.Category)
		writeJSON(w, http.StatusOK, ObjectsResponse{Category: req.Category, Epoch: epoch, NumObjects: n})
	}
}

// categoryParam reads the optional category parameter.
func categoryParam(params url.Values) string {
	if c := params.Get("category"); c != "" {
		return c
	}
	return rnknn.DefaultCategory
}

// intParam parses an integer query parameter; def < 0 makes it required.
func intParam(params url.Values, name string, def int) (int, error) {
	v := params.Get(name)
	if v == "" {
		if def < 0 {
			return 0, fmt.Errorf("missing required parameter %q", name)
		}
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %q is not an integer", name, v)
	}
	return n, nil
}

// int32Param is intParam for the parameters that name a vertex or a k: both
// are 32-bit downstream (vertex ids, the cache key's k), and a value that
// does not fit is refused here rather than narrowed into some other value.
func int32Param(params url.Values, name string, def int) (int32, error) {
	n, err := intParam(params, name, def)
	if err == nil && !fits32(n) {
		err = fmt.Errorf("parameter %q: %d does not fit 32 bits", name, n)
	}
	return int32(n), err
}

// fits32 reports whether n survives narrowing to 32 bits.
func fits32(n int) bool { return n == int(int32(n)) }

// parseMethod parses an optional method name — the method parameter of
// /knn and /monitor, a /batch member's method — with one default for all
// three: "Auto", the planner picks among whatever methods the DB was opened
// with.
func parseMethod(v string) (rnknn.Method, error) {
	if v == "" {
		return rnknn.MethodAuto, nil
	}
	return rnknn.ParseMethod(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps errors onto HTTP statuses: unknown categories are 404,
// context expiry is 503 (the query was cut short, not invalid), a full
// admission semaphore is 429 with a Retry-After, and everything else — the
// typed validation errors — is 400.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, rnknn.ErrUnknownCategory):
		status = http.StatusNotFound
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusServiceUnavailable
	case errors.Is(err, errSaturated):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
