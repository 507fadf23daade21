package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rnknn/internal/knn"
	"rnknn/internal/serve"
	"rnknn/pkg/rnknn"
)

// reply is what one operation returned: one answer for a query, one per
// member for a batch, none for a mutation.
type reply struct {
	answers []answer
	// hit[i] reports that answer i was served without a search: from the
	// result cache, a duplicate inside its batch, or a coalesced follower.
	// Always empty for the in-process DB, which has no such layer.
	hit []bool
}

// counters are the layer counters readable from outside the measured
// system, cumulative since bring-up: the serve layer's own (zero for an
// in-process DB) and the DB's per-method totals (absent behind a sharded
// front, whose /stats has no DB section).
type counters struct {
	Server        serve.ServerStats `json:"server"`
	ShardRequests uint64            `json:"shard_requests"` // sum of per-shard admitted requests
	KNNByMethod   map[string]uint64 `json:"knn_by_method"`
	SearchNanos   int64             `json:"search_nanos"` // sum of the DB's per-method TotalLatency
	Batch         rnknn.BatchStats  `json:"batch"`
}

// system is a brought-up measured system: an in-process DB or an rnknnd
// child. do and mutate are safe for concurrent use.
type system interface {
	// do runs a query or batch. keep asks for the answers to be copied into
	// r for later verification; without it r.answers may stay empty.
	do(ctx context.Context, o *op, keep bool, r *reply) error
	// mutate applies an insert or remove and returns the category's epoch
	// after it.
	mutate(ctx context.Context, o *op) (uint64, error)
	counters() (counters, error)
	// rssMB is the peak resident set of the process hosting the DB.
	rssMB() (float64, error)
	// close stops the system; for rnknnd it returns the server's stderr.
	close() string
}

func dbCounters(st rnknn.Stats, c *counters) {
	c.KNNByMethod = map[string]uint64{}
	for name, ms := range st.Methods {
		c.KNNByMethod[name] = ms.KNNQueries
		c.SearchNanos += int64(ms.TotalLatency)
	}
	c.Batch = st.Batch
}

// --- in-process library ---

type libSystem struct {
	db *rnknn.DB
}

// openLib maps the fixture snapshot and registers every category, filing
// each one's epoch with the model when there is one.
func openLib(dir string, w *world, m *model) (*libSystem, error) {
	db, err := rnknn.OpenSnapshotFile(snapshotPath(dir), rnknn.WithMethods(fixtureMethods...))
	if err != nil {
		return nil, fmt.Errorf("open snapshot: %w", err)
	}
	for c, verts := range w.cats {
		if err := db.RegisterObjects(catNames[c], verts); err != nil {
			db.Close()
			return nil, err
		}
		if m != nil {
			epoch, _ := db.Epoch(catNames[c])
			m.setInitialEpoch(catID(c), epoch)
		}
	}
	return &libSystem{db: db}, nil
}

func (s *libSystem) do(ctx context.Context, o *op, keep bool, r *reply) error {
	inCat := rnknn.WithCategory(catNames[o.cat])
	// One result buffer per call site would race across clients; the library
	// workloads run one client, and a kept answer is copied out below.
	var res []rnknn.Result
	var err error
	if len(r.answers) == 1 {
		res = r.answers[0].results[:0]
	}
	switch o.kind {
	case opKNN:
		res, err = s.db.KNNAppend(ctx, o.q, int(o.k), res, rnknn.WithMethod(o.method), inCat)
	case opRange:
		res, err = s.db.RangeAppend(ctx, o.q, rnknn.Dist(o.radius), res, inCat)
	case opBatch:
		// Only the tape replay sends batches to a library system, and it
		// keeps no answers. No method is named, as serve's /batch names none
		// for a member that came without one: the DB's default method runs.
		b := s.db.Batch()
		for _, v := range o.verts {
			b.AddKNN(v, int(o.k), inCat)
		}
		_, err = b.Run(ctx)
		r.answers = r.answers[:0]
		return err
	default:
		return fmt.Errorf("lib: unsupported op kind %d", o.kind)
	}
	if err != nil {
		return err
	}
	r.answers = append(r.answers[:0], answer{cat: o.cat, isRange: o.kind == opRange, q: o.q, k: o.k, radius: o.radius, results: res})
	if keep {
		r.answers[0].epoch, err = s.db.Epoch(catNames[o.cat])
	}
	return err
}

func (s *libSystem) mutate(_ context.Context, o *op) (uint64, error) {
	var err error
	if o.kind == opInsert {
		err = s.db.InsertObjects(catNames[o.cat], o.verts)
	} else {
		err = s.db.RemoveObjects(catNames[o.cat], o.verts)
	}
	if err != nil {
		return 0, err
	}
	return s.db.Epoch(catNames[o.cat])
}

func (s *libSystem) counters() (counters, error) {
	var c counters
	dbCounters(s.db.Stats(), &c)
	return c, nil
}

func (s *libSystem) rssMB() (float64, error) { return peakRSSMB(os.Getpid()) }

func (s *libSystem) close() string {
	s.db.Close()
	return ""
}

// peakRSSMB reads VmHWM, the peak resident set size, of a live process.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of pid %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// --- rnknnd over loopback ---

type httpSystem struct {
	base    string
	client  *http.Client
	sharded bool
	cmd     *exec.Cmd
	stderr  *bytes.Buffer
	exited  chan struct{} // closed once cmd.Wait returned
}

// freePort asks the kernel for an unused loopback port. Another process
// may take it before rnknnd binds it; startServer retries on that.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns the rnknnd binary over the fixture, waits for
// /healthz, and registers every category through POST /objects/insert.
func startServer(ctx context.Context, bin, dir, network string, sharded bool, clients int, w *world, m *model) (*httpSystem, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := startServerOnce(ctx, bin, dir, network, sharded, clients)
		if err != nil {
			lastErr = err
			continue
		}
		for c, verts := range w.cats {
			epoch, err := s.mutate(ctx, &op{kind: opInsert, cat: catID(c), verts: verts})
			if err != nil {
				return nil, fmt.Errorf("register %s: %w; rnknnd stderr: %s", catNames[c], err, s.close())
			}
			if m != nil {
				m.setInitialEpoch(catID(c), epoch)
			}
		}
		return s, nil
	}
	return nil, lastErr
}

func startServerOnce(ctx context.Context, bin, dir, network string, sharded bool, clients int) (*httpSystem, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr}
	if sharded {
		args = append(args, "-shards", shardDir(dir))
	} else {
		args = append(args, "-network", network, "-methods", fixtureMethodsFlag, "-indexcache", cacheDir(dir), "-mmap")
	}
	s := &httpSystem{
		base:    "http://" + addr,
		sharded: sharded,
		stderr:  &bytes.Buffer{},
		exited:  make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rnknnd: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a server we stop ourselves says nothing
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("rnknnd exited during start-up: %s", strings.TrimSpace(s.stderr.String()))
		case <-ctx.Done():
			s.close()
			return nil, ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("rnknnd not healthy after 30s: %s", s.close())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// call issues one request and decodes a 200 answer into out. Anything but
// a 200 — transport error, 429, 4xx, 5xx — is an error and counts as a
// failed operation.
func (s *httpSystem) call(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func fromWire(rs []serve.ResultJSON) []knn.Result {
	out := make([]knn.Result, len(rs))
	for i, r := range rs {
		out[i] = knn.Result{Vertex: r.Vertex, Dist: r.Dist}
	}
	return out
}

func (s *httpSystem) do(ctx context.Context, o *op, keep bool, r *reply) error {
	r.answers, r.hit = r.answers[:0], r.hit[:0]
	cat := catNames[o.cat]
	switch o.kind {
	case opKNN:
		var resp serve.KNNResponse
		path := "/knn?q=" + strconv.Itoa(int(o.q)) + "&k=" + strconv.Itoa(int(o.k)) + "&category=" + cat
		if o.method != rnknn.MethodAuto {
			path += "&method=" + o.method.String()
		}
		if err := s.call(ctx, http.MethodGet, path, nil, &resp); err != nil {
			return err
		}
		r.hit = append(r.hit, resp.Cached)
		if keep {
			r.answers = append(r.answers, answer{cat: o.cat, q: o.q, k: o.k, epoch: resp.Epoch, results: fromWire(resp.Results)})
		}
	case opRange:
		var resp serve.RangeResponse
		path := "/range?q=" + strconv.Itoa(int(o.q)) + "&radius=" + strconv.FormatInt(o.radius, 10) + "&category=" + cat
		if err := s.call(ctx, http.MethodGet, path, nil, &resp); err != nil {
			return err
		}
		r.hit = append(r.hit, resp.Cached)
		if keep {
			r.answers = append(r.answers, answer{cat: o.cat, isRange: true, q: o.q, radius: o.radius, epoch: resp.Epoch, results: fromWire(resp.Results)})
		}
	case opBatch:
		req := serve.BatchRequest{Queries: make([]serve.BatchQuery, len(o.verts))}
		for i, v := range o.verts {
			req.Queries[i] = serve.BatchQuery{Query: v, K: int(o.k), Category: cat}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		var resp serve.BatchResponse
		if err := s.call(ctx, http.MethodPost, "/batch", body, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(o.verts) {
			return fmt.Errorf("/batch: %d results for %d queries", len(resp.Results), len(o.verts))
		}
		for i, br := range resp.Results {
			if br.Error != "" {
				return fmt.Errorf("/batch member %d: %s", i, br.Error)
			}
			r.hit = append(r.hit, br.Cached)
			if keep {
				r.answers = append(r.answers, answer{cat: o.cat, q: br.Query, k: o.k, epoch: br.Epoch, results: fromWire(br.Results)})
			}
		}
	default:
		return fmt.Errorf("http: unsupported op kind %d", o.kind)
	}
	return nil
}

func (s *httpSystem) mutate(ctx context.Context, o *op) (uint64, error) {
	path := "/objects/insert"
	if o.kind == opRemove {
		path = "/objects/remove"
	}
	body, err := json.Marshal(serve.ObjectsRequest{Category: catNames[o.cat], Vertices: o.verts})
	if err != nil {
		return 0, err
	}
	var resp serve.ObjectsResponse
	if err := s.call(ctx, http.MethodPost, path, body, &resp); err != nil {
		return 0, err
	}
	return resp.Epoch, nil
}

func (s *httpSystem) counters() (counters, error) {
	var c counters
	if s.sharded {
		var st serve.ShardedStatsResponse
		if err := s.call(context.Background(), http.MethodGet, "/stats", nil, &st); err != nil {
			return c, err
		}
		for _, sh := range st.Shards {
			c.ShardRequests += sh.Server.Requests
			c.Server.Shed += sh.Server.Shed
			c.Server.CacheHits += sh.Server.CacheHits
			c.Server.CacheMisses += sh.Server.CacheMisses
			c.Server.CacheEvictions += sh.Server.CacheEvictions
			c.Server.Coalesced += sh.Server.Coalesced
		}
		return c, nil
	}
	var st serve.StatsResponse
	if err := s.call(context.Background(), http.MethodGet, "/stats", nil, &st); err != nil {
		return c, err
	}
	c.Server = st.Server
	dbCounters(st.DB, &c)
	return c, nil
}

func (s *httpSystem) rssMB() (float64, error) { return peakRSSMB(s.cmd.Process.Pid) }

// close interrupts rnknnd (its own graceful path), kills it if it has not
// exited within two seconds, waits for it, and returns its stderr.
func (s *httpSystem) close() string {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(2 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	return strings.TrimSpace(s.stderr.String())
}

// buildServer compiles cmd/rnknnd into out. benchDir is this module's
// directory: the go command resolves rnknn/cmd/rnknnd through its replace
// directive.
func buildServer(ctx context.Context, benchDir, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "rnknn/cmd/rnknnd")
	cmd.Dir = benchDir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build rnknn/cmd/rnknnd (in %s) failed: %w\n%s", benchDir, err, bytes.TrimSpace(msg))
	}
	return nil
}
