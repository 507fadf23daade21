// Package serve is the network serving layer over rnknn.DB: the HTTP/JSON
// front end cmd/rnknnd mounts, turning the in-process query library into a
// service that survives heavy traffic by shedding load in three layers,
// cheapest first — one such stack per database, so one for a DB and one per
// shard for a shard set, behind the same Server and the same handlers:
//
//	request ──► admission ──► result cache ──► coalescer ──► session pools
//	             (429 when     (hit: no          (follower:    (db.KNNPinned)
//	              saturated)    session runs)     wait, share)
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
// observed epoch E. The coalescer is a single-flight layer under the cache:
// identical concurrent misses run one search and share its answer.
//
// Both /knn and /range ride the cache (kNN entries carry radius -1, range
// entries k 0, so the key spaces are disjoint); /monitor streams one
// db.Monitor session as Server-Sent Events, holding a single admission
// slot for the session's lifetime and bypassing the cache (deltas are
// per-session state — see monitor.go). /batch rides the same layers
// member-wise — per-member cache lookups, misses claiming the same
// coalescer map as the singles — and then executes its leaders as ONE
// db.Batch, whose grouping planner runs same-leaf clusters through shared
// expansions (see rnknn.Batch).
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
	"net/http"
	"slices"
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
	// CacheEntries bounds the result cache (total entries across shards).
	// 0 means the default 4096; negative disables caching.
	CacheEntries int
	// CacheShards is the shard count (rounded up to a power of two).
	// <= 0 means the default 16.
	CacheShards int
}

const (
	defaultMaxInFlight  = 256
	defaultCacheEntries = 4096
	// maxBatch bounds the queries accepted in one /batch request.
	maxBatch = 4096
)

// errSaturated reports a full admission semaphore; writeError maps it to 429.
var errSaturated = errors.New("server saturated: max in-flight queries reached")

// stack is the serving state in front of one rnknn.DB: its admission
// semaphore, its epoch-keyed result cache, its coalescer and its counters.
// A Server over one DB has one stack; over a shard set, one per shard, each
// keyed on that shard's exact epochs.
type stack struct {
	db       *rnknn.DB
	adm      *admission
	cache    *resultCache
	co       *coalescer
	requests atomic.Uint64
	// Batch-path counters: requests, member queries, members answered from
	// the cache, and members answered by a shared-expansion group.
	batches        atomic.Uint64
	batchQueries   atomic.Uint64
	batchCacheHits atomic.Uint64
	batchShared    atomic.Uint64
}

// store is what the mutation and /stats handlers need of the database
// behind the stacks; *rnknn.DB and *rnknn.ShardedDB both provide it (the
// shard set routes each mutated vertex to its owning cell).
type store interface {
	Graph() *rnknn.Graph
	InsertObjects(name string, vertices []int32) error
	RemoveObjects(name string, vertices []int32) error
	Epoch(name string) (uint64, error)
	NumObjects(name string) (int, error)
}

// Server serves one rnknn.DB, or one rnknn.ShardedDB, over HTTP. Create
// with New or NewSharded, mount Handler.
//
// Over a shard set every shard gets its own stack, and /knn and /range
// answer from rnknn.ShardedDB's bound-pruned fan with the per-shard cached
// query path plugged in: a shard consulted twice for the same (vertex, k,
// epoch) answers the second time from its cache, and object churn on one
// shard invalidates only that shard's entries. Admission is per shard too:
// a request holds a slot on each shard while it queries it, so a hot shard
// sheds load (429) without idling the others. /monitor and /batch answer
// 501 there — both are per-session/per-plan machinery a later change can
// lift over the fan.
type Server struct {
	stacks []*stack
	objs   store
	// sdb is the shard set the stacks belong to; nil over a single DB.
	sdb *rnknn.ShardedDB
	mux *http.ServeMux
	// batchMode is the shared-expansion mode /batch executes with: always
	// rnknn.SharedAuto (the planner's fitted cost model decides per group),
	// except where a test forces a mode.
	batchMode rnknn.SharedMode
	// gate, when non-nil, runs on the cache-miss path immediately before
	// the underlying query — a test hook that lets the coalescing and
	// admission tests hold queries in flight deterministically.
	gate func()
}

// New builds a Server over db with the given sizing.
func New(db *rnknn.DB, cfg Config) *Server {
	return newServer(db, nil, []*rnknn.DB{db}, cfg)
}

// NewSharded builds a Server over the shard set sdb. cfg sizes each
// shard's stack individually (MaxInFlight and CacheEntries are per shard).
func NewSharded(sdb *rnknn.ShardedDB, cfg Config) *Server {
	dbs := make([]*rnknn.DB, sdb.NumShards())
	for i := range dbs {
		dbs[i] = sdb.Shard(i)
	}
	return newServer(sdb, sdb, dbs, cfg)
}

func newServer(objs store, sdb *rnknn.ShardedDB, dbs []*rnknn.DB, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = defaultCacheEntries
	}
	s := &Server{objs: objs, sdb: sdb, mux: http.NewServeMux()}
	for _, db := range dbs {
		s.stacks = append(s.stacks, &stack{
			db:    db,
			adm:   newAdmission(cfg.MaxInFlight),
			cache: newResultCache(cfg.CacheEntries, cfg.CacheShards),
			co:    newCoalescer(),
		})
	}
	// Over one DB a query request holds the stack's slot from parse to
	// response; over a shard set each fanned shard query takes its own
	// shard's slot (see answer), and the session- and plan-scoped endpoints
	// are not served.
	front, monitor, batch := s.admitted, s.admitted(s.handleMonitor), s.admitted(s.handleBatch)
	if sdb != nil {
		front = func(h http.HandlerFunc) http.HandlerFunc { return h }
		monitor, batch = handleUnsupported, handleUnsupported
	}
	s.mux.HandleFunc("GET /healthz", handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /knn", front(s.handleKNN))
	s.mux.HandleFunc("GET /range", front(s.handleRange))
	s.mux.HandleFunc("GET /monitor", monitor)
	s.mux.HandleFunc("POST /batch", batch)
	s.mux.HandleFunc("POST /objects/insert", s.handleObjects(objs.InsertObjects))
	s.mux.HandleFunc("POST /objects/remove", s.handleObjects(objs.RemoveObjects))
	return s
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the serving layer's counters (the GET /stats "server"
// section), summed over the shard stacks when there are several.
func (s *Server) Stats() ServerStats { return sumStats(s.stacks) }

func sumStats(stacks []*stack) ServerStats {
	var t ServerStats
	for _, st := range stacks {
		t.InFlight += st.adm.inFlight()
		t.MaxInFlight += st.adm.max()
		t.Requests += st.requests.Load()
		t.Shed += st.adm.shed.Load()
		t.CacheHits += st.cache.hits.Load()
		t.CacheMisses += st.cache.misses.Load()
		t.CacheEvictions += st.cache.evictions.Load()
		t.CacheEntries += st.cache.len()
		t.Coalesced += st.co.coalesced.Load()
		t.Batches += st.batches.Load()
		t.BatchQueries += st.batchQueries.Load()
		t.BatchCacheHits += st.batchCacheHits.Load()
		t.BatchShared += st.batchShared.Load()
	}
	return t
}

// admitted wraps a single-stack query handler in the admission semaphore:
// acquire or answer 429 now, never queue.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	st := s.stacks[0]
	return func(w http.ResponseWriter, r *http.Request) {
		if !st.adm.tryAcquire() {
			writeError(w, errSaturated)
			return
		}
		defer st.adm.release()
		st.requests.Add(1)
		h(w, r)
	}
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func handleUnsupported(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusNotImplemented, ErrorResponse{
		Error: "not supported on a sharded front; connect to a single-DB server",
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	g := s.objs.Graph()
	graph := GraphJSON{NumVertices: g.NumVertices(), NumEdges: g.NumEdges() / 2, Weights: g.Kind.String()}
	if s.sdb == nil {
		writeJSON(w, http.StatusOK, StatsResponse{Server: s.Stats(), Graph: graph, DB: s.stacks[0].db.Stats()})
		return
	}
	out := ShardedStatsResponse{Graph: graph, NumShards: len(s.stacks)}
	for i, st := range s.stacks {
		n, _ := st.db.NumObjects(rnknn.DefaultCategory)
		out.Shards = append(out.Shards, ShardStatsJSON{Server: sumStats(s.stacks[i : i+1]), NumObjects: n})
	}
	writeJSON(w, http.StatusOK, out)
}

// cachedQuery is one /knn or /range request as the cache and coalescer see
// it. kNN keys carry radius -1 and range keys k 0, which keeps the two key
// spaces disjoint in the shared cache.
type cachedQuery struct {
	isRange  bool
	vertex   int32
	k        int
	radius   int64
	method   rnknn.Method
	category string
}

func (cq cachedQuery) key(epoch uint64) cacheKey {
	return cacheKey{vertex: cq.vertex, k: int32(cq.k), radius: cq.radius, epoch: epoch, category: cq.category}
}

// query answers cq through the stack's cache and coalescer (the caller
// holds an admission slot): the lookup key pins the epoch the reader
// observed, so a hit is an answer computed from exactly that object set; a
// miss runs single-flight. It returns the epoch stamped on the answer and
// whether it was served without running a search here (a cache hit or a
// coalesced follower).
func (st *stack) query(ctx context.Context, cq cachedQuery, gate func()) ([]rnknn.Result, uint64, bool, error) {
	epoch, err := st.db.Epoch(cq.category)
	if err != nil {
		return nil, 0, false, err
	}
	key := cq.key(epoch)
	if res, ok := st.cache.get(key); ok {
		return res, epoch, true, nil
	}
	return st.co.do(ctx, key, func() (res []rnknn.Result, pinned uint64, err error) {
		if gate != nil {
			gate()
		}
		if cq.isRange {
			res, pinned, err = st.db.RangePinned(ctx, cq.vertex, rnknn.Dist(cq.radius), rnknn.WithCategory(cq.category))
		} else {
			res, pinned, err = st.db.KNNPinned(ctx, cq.vertex, cq.k, rnknn.WithMethod(cq.method), rnknn.WithCategory(cq.category))
		}
		if err == nil {
			// Store under the epoch the search pinned — possibly newer than
			// the lookup epoch when churn raced this request; never older.
			st.cache.put(cq.key(pinned), res)
		}
		return res, pinned, err
	})
}

// answer serves cq from the one stack, or from the shard set's fan with
// every consulted shard answering from its own stack: that shard's
// admission slot (or shed), then its cache and coalescer. A fanned answer
// counts as cached only when no consulted shard ran a search, and its
// epoch is the composite identifying the cross-shard object-set version
// (informational — see rnknn.ShardedDB.Epoch).
func (s *Server) answer(ctx context.Context, cq cachedQuery) ([]rnknn.Result, uint64, bool, error) {
	if s.sdb == nil {
		return s.stacks[0].query(ctx, cq, s.gate)
	}
	searched := make([]bool, len(s.stacks))
	ask := func(shard int) ([]rnknn.Result, error) {
		st := s.stacks[shard]
		if !st.adm.tryAcquire() {
			return nil, errSaturated
		}
		defer st.adm.release()
		st.requests.Add(1)
		res, _, hit, err := st.query(ctx, cq, s.gate)
		searched[shard] = !hit // one writer per shard slot; read after the fan joins
		return res, err
	}
	var res []rnknn.Result
	var err error
	if cq.isRange {
		res, err = s.sdb.FanRange(ctx, cq.vertex, rnknn.Dist(cq.radius), ask)
	} else {
		res, err = s.sdb.FanKNN(ctx, cq.vertex, cq.k, ask)
	}
	if err != nil {
		return nil, 0, false, err
	}
	epoch, _ := s.sdb.Epoch(cq.category)
	return res, epoch, !slices.Contains(searched, true), nil
}

// handleKNN is the cached read path: epoch-keyed lookup, then single-flight
// execution on miss. The answer's epoch stamp always names the exact object
// set it was computed from.
func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	qv, err := intParam(r, "q", -1)
	if err != nil {
		writeError(w, err)
		return
	}
	k, err := intParam(r, "k", 10)
	if err != nil {
		writeError(w, err)
		return
	}
	methodName, method, err := methodParam(r)
	if err != nil {
		writeError(w, err)
		return
	}
	cq := cachedQuery{vertex: int32(qv), k: k, radius: -1, method: method, category: categoryParam(r)}
	res, epoch, cached, err := s.answer(r.Context(), cq)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, KNNResponse{
		Query:         cq.vertex,
		K:             cq.k,
		Method:        methodName,
		Category:      cq.category,
		Epoch:         epoch,
		Cached:        cached,
		LatencyMicros: time.Since(start).Microseconds(),
		Results:       Results(res),
	})
}

// handleRange is the cached range path, the same three layers as /knn.
// Range entries share the kNN cache, so repeated radii — loadgen's
// fixed-radius mix, map tiles at zoom levels — hit without a session, and
// object churn retires range answers by the same epoch mechanism.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	qv, err := intParam(r, "q", -1)
	if err != nil {
		writeError(w, err)
		return
	}
	radius, err := intParam(r, "radius", -1)
	if err != nil {
		writeError(w, err)
		return
	}
	cq := cachedQuery{isRange: true, vertex: int32(qv), radius: int64(radius), category: categoryParam(r)}
	res, epoch, cached, err := s.answer(r.Context(), cq)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RangeResponse{
		Query:         cq.vertex,
		Radius:        cq.radius,
		Category:      cq.category,
		Epoch:         epoch,
		Cached:        cached,
		LatencyMicros: time.Since(start).Microseconds(),
		Results:       Results(res),
	})
}

// handleBatch decodes a mixed kNN/range batch and runs it through the same
// three layers as the single-query endpoints, then one db.Batch:
//
//  1. Every member does an epoch-keyed cache lookup; hits never reach a
//     session.
//  2. Each distinct missed key claims the coalescer: members whose key is
//     already in flight (a concurrent /knn, /range, or another batch's
//     leader) become followers and just wait; duplicates inside the batch
//     collapse onto one leader.
//  3. The leaders (plus unkeyable members — unknown categories and other
//     per-member errors the library reports) execute as ONE db.Batch, so
//     same-leaf clusters among them ride the shared-expansion path, and
//     each answer is published to cache and followers under the epoch the
//     search pinned.
//  4. Followers collect their leaders' answers.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	st := s.stacks[0]
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad batch body: " + err.Error()})
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
	methodNames := make([]string, n)
	for i, q := range req.Queries {
		methods[i] = rnknn.MethodAuto
		methodNames[i] = rnknn.MethodAuto.String()
		if q.Method != "" {
			m, err := rnknn.ParseMethod(q.Method)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("query %d: %v", i, err)})
				return
			}
			methods[i] = m
			methodNames[i] = m.String()
		}
		if q.Radius != nil && q.K > 0 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("query %d: both k and radius set", i)})
			return
		}
	}
	st.batches.Add(1)
	st.batchQueries.Add(uint64(n))

	// Phase 1: epoch-keyed cache lookups per member. An epoch lookup that
	// fails (unknown category) leaves the member unkeyed; the inner batch
	// reports the library's error for it.
	out := make([]BatchResultJSON, n)
	keys := make([]cacheKey, n)
	keyed := make([]bool, n)
	epochs := map[string]uint64{}
	var miss []int
	for i, q := range req.Queries {
		category := q.Category
		if category == "" {
			category = rnknn.DefaultCategory
		}
		epoch, ok := epochs[category]
		if !ok {
			var err error
			if epoch, err = st.db.Epoch(category); err != nil {
				miss = append(miss, i)
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
		if res, ok := st.cache.get(keys[i]); ok {
			st.batchCacheHits.Add(1)
			out[i] = BatchResultJSON{Query: q.Query, Method: methodNames[i], Epoch: epoch, Cached: true, Results: Results(res)}
			continue
		}
		miss = append(miss, i)
	}

	// Phase 2: claim or follow each distinct missed key.
	type lead struct {
		call    *inflightCall
		members []int
	}
	type follow struct {
		call   *inflightCall
		member int
	}
	leaders := map[cacheKey]*lead{}
	var followers []follow
	var run []int // member indices this request executes (one per leader key, plus unkeyed members)
	for _, i := range miss {
		if !keyed[i] {
			run = append(run, i)
			continue
		}
		if l, ok := leaders[keys[i]]; ok {
			l.members = append(l.members, i)
			continue
		}
		call, leader := st.co.claim(keys[i])
		if leader {
			leaders[keys[i]] = &lead{call: call, members: []int{i}}
			run = append(run, i)
		} else {
			followers = append(followers, follow{call: call, member: i})
		}
	}

	// Phase 3: one db.Batch over the leaders — same-leaf clusters among them
	// share expansions — then publish under the epoch each answer pinned.
	if len(run) > 0 {
		b := st.db.Batch().SharedExpansion(s.batchMode)
		for _, i := range run {
			q := req.Queries[i]
			var opts []rnknn.QueryOption
			if q.Category != "" {
				opts = append(opts, rnknn.WithCategory(q.Category))
			}
			if q.Method != "" {
				opts = append(opts, rnknn.WithMethod(methods[i]))
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
		// the error — publish those too, so followers never hang.
		results, _ := b.Run(r.Context())
		for j, i := range run {
			br := results[j]
			if br.Shared {
				st.batchShared.Add(1)
			}
			if !keyed[i] {
				out[i] = batchResultJSON(br, false)
				continue
			}
			l := leaders[keys[i]]
			if br.Err == nil {
				k := keys[i]
				k.epoch = br.Epoch // possibly newer than the lookup epoch; never older
				st.cache.put(k, br.Results)
			}
			st.co.publish(keys[i], l.call, br.Results, br.Epoch, br.Err)
			for mj, mi := range l.members {
				out[mi] = batchResultJSON(br, mj > 0)
			}
		}
	}

	// Phase 4: collect followers from their leaders (a concurrent single or
	// another batch), honoring this request's own deadline.
	for _, f := range followers {
		i := f.member
		select {
		case <-f.call.done:
			br := rnknn.BatchResult{Query: req.Queries[i].Query, Results: f.call.res, Err: f.call.err, Epoch: f.call.epoch}
			out[i] = batchResultJSON(br, true)
			if br.Err == nil {
				// The leader's concrete method is not recorded on the call;
				// echo what this member asked for, as /knn does for followers.
				out[i].Method = methodNames[i]
			}
		case <-r.Context().Done():
			out[i] = BatchResultJSON{Query: req.Queries[i].Query, Error: r.Context().Err().Error()}
		}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: out})
}

// batchResultJSON converts one library batch result to its wire form;
// cached marks answers served without running a search for this member
// (intra-batch duplicates and coalesced followers).
func batchResultJSON(br rnknn.BatchResult, cached bool) BatchResultJSON {
	out := BatchResultJSON{Query: br.Query, LatencyMicros: br.Latency.Microseconds(), Cached: cached, Shared: br.Shared}
	if br.Err != nil {
		out.Error = br.Err.Error()
	} else {
		out.Method = br.Method.String()
		out.Epoch = br.Epoch
		out.Results = Results(br.Results)
	}
	return out
}

// handleObjects wraps one mutation (InsertObjects or RemoveObjects; over a
// shard set the ShardedDB splits the vertices by owning cell). The mutation
// path deliberately skips admission and the cache — see the package comment:
// the epochs advance, retiring exactly the affected stacks' cache entries.
func (s *Server) handleObjects(mutate func(string, []int32) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req ObjectsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad objects body: " + err.Error()})
			return
		}
		if req.Category == "" {
			req.Category = rnknn.DefaultCategory
		}
		if err := mutate(req.Category, req.Vertices); err != nil {
			writeError(w, err)
			return
		}
		epoch, err := s.objs.Epoch(req.Category)
		if err != nil {
			writeError(w, err)
			return
		}
		n, _ := s.objs.NumObjects(req.Category)
		writeJSON(w, http.StatusOK, ObjectsResponse{Category: req.Category, Epoch: epoch, NumObjects: n})
	}
}

// categoryParam reads the optional category parameter.
func categoryParam(r *http.Request) string {
	if c := r.URL.Query().Get("category"); c != "" {
		return c
	}
	return rnknn.DefaultCategory
}

// intParam parses an integer query parameter; def < 0 makes it required.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
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

// methodParam parses the optional method parameter (default "Auto": the
// planner picks among whatever methods the DB was opened with).
func methodParam(r *http.Request) (string, rnknn.Method, error) {
	v := r.URL.Query().Get("method")
	if v == "" {
		return rnknn.MethodAuto.String(), rnknn.MethodAuto, nil
	}
	m, err := rnknn.ParseMethod(v)
	if err != nil {
		return "", 0, err
	}
	return m.String(), m, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps errors onto HTTP statuses: unknown categories are 404,
// context expiry is 503 (the query was cut short, not invalid), a full
// admission semaphore — the request's own, or that of any shard it fanned
// to — is 429 with a Retry-After, and everything else — the typed
// validation errors — is 400.
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
